// A frame-pointer sampler for one running process (x86-64 Linux).
//
//   sampler <pid> [hz=1000] > samples.txt
//
// Seizes <pid> with ptrace and, every 1/hz seconds until the process
// exits, stops it, prints one line -- rip, then the return address of
// each frame on the rbp chain, in hex, innermost first -- and lets it run.
// Only code built with frame pointers walks past its own frame. Needs
// permission to ptrace <pid> (same user, and ptrace_scope 0, or root).
// scripts/profile.sh drives it and names the addresses.
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/ptrace.h>
#include <sys/user.h>
#include <sys/wait.h>
#include <time.h>

#if !defined(__x86_64__)
#error "sampler.c reads x86-64 registers"
#endif

enum { MAX_FRAMES = 128 };

int main(int argc, char **argv) {
    if (argc < 2) {
        fprintf(stderr, "usage: %s <pid> [hz=1000]\n", argv[0]);
        return 2;
    }
    pid_t pid = (pid_t)atoi(argv[1]);
    long hz = argc > 2 ? atol(argv[2]) : 1000;
    struct timespec gap = {0, 1000000000L / (hz > 0 ? hz : 1000)};
    if (ptrace(PTRACE_SEIZE, pid, 0, 0) == -1) {
        perror("sampler: PTRACE_SEIZE");
        return 1;
    }
    for (;;) {
        nanosleep(&gap, NULL);
        if (ptrace(PTRACE_INTERRUPT, pid, 0, 0) == -1)
            return 0; // gone
        int status;
        // Pass on any signal that arrives first; stop at the interrupt.
        for (;;) {
            if (waitpid(pid, &status, __WALL) == -1 || WIFEXITED(status) || WIFSIGNALED(status))
                return 0;
            if (status >> 16 == PTRACE_EVENT_STOP)
                break;
            ptrace(PTRACE_CONT, pid, 0, (void *)(long)WSTOPSIG(status));
        }
        struct user_regs_struct regs;
        if (ptrace(PTRACE_GETREGS, pid, 0, &regs) == 0) {
            printf("%llx", regs.rip);
            unsigned long fp = regs.rbp;
            for (int depth = 0; fp != 0 && depth < MAX_FRAMES; depth++) {
                long next = ptrace(PTRACE_PEEKDATA, pid, (void *)fp, 0);
                long ret = ptrace(PTRACE_PEEKDATA, pid, (void *)(fp + 8), 0);
                if (ret == -1 || ret == 0)
                    break;
                printf(" %lx", (unsigned long)ret);
                if ((unsigned long)next <= fp)
                    break; // the chain must climb the stack
                fp = (unsigned long)next;
            }
            putchar('\n');
        }
        ptrace(PTRACE_CONT, pid, 0, 0);
    }
}
