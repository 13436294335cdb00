//! The filter language's one static analysis: a program as a union of
//! boxes in header space.
//!
//! [`Form::of`] walks a program's words once and returns its *form*, the
//! one answer every consumer of a static fact about a filter reads:
//!
//! - the program as a disjunction of conjunctions of atoms
//!   `packet[w] ∈ [lo, hi]` ([`Interval`]; equality is `lo == hi`), or
//!   `Opaque`. Each [`Disjunct`] also records the highest packet word read
//!   before the program accepts that way: a packet too short for it
//!   faults (rejects) whatever the atoms say;
//! - the atoms every accepting path requires ([`Form::required`]): the
//!   witness that lets geom skip a member, the admission gate shed a frame
//!   and RSS pin a flow;
//! - the leading test ([`Form::lead`]), the gate's primary key.
//!
//! The walk evaluates the program over two domains side by side. The
//! disjunction's is the decision table's: equality tests joined by `AND`,
//! `CAND` and `COR` (never both short-circuit kinds in one program), plus
//! ordering compares of a word against a literal, as the final test or
//! behind `CNOR 0`; outside it the form is `Opaque`. The required atoms'
//! domain is every value the program computes, numbered as the compiled
//! rungs number them, so the walk finds every atom their code tests:
//! literal arithmetic folds through [`BinaryOp::apply`], a value computed
//! twice is one value (`x == x` is 1), an ordering compare tested `== 0`
//! by a short-circuit operator is the compare with its arms swapped, and
//! two range guards in a row on one word are one atom, their intersection
//! (`socket_range_filter`'s `GE lo` and `LE hi` are the atom `[lo, hi]`).
//! A branch whose arms the compiled code folds together tests nothing,
//! and a program no path of which accepts requires every atom its code
//! tests. Required atoms are computed for programs that validate, and for
//! no other.

use crate::interp::STACK_SIZE;
use crate::packet::PacketView;
use crate::program::{FilterProgram, MAX_PROGRAM_WORDS};
use crate::word::{BinaryOp, Instr, StackAction};

/// An atom `packet[word] ∈ [lo, hi]` (inclusive, unsigned).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Interval {
    /// Packet word index the atom reads.
    pub word: u16,
    /// Lowest accepted value.
    pub lo: u16,
    /// Highest accepted value.
    pub hi: u16,
}

impl Interval {
    /// The atom `packet[word] == value`.
    pub fn exact(word: u16, value: u16) -> Self {
        Interval {
            word,
            lo: value,
            hi: value,
        }
    }

    /// Whether this is a degenerate (single-literal) interval.
    pub fn is_exact(&self) -> bool {
        self.lo == self.hi
    }

    /// Whether `other`'s values all lie in this interval (words aside).
    pub fn contains(&self, other: &Interval) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// Whether every packet satisfying `other` satisfies this.
    pub fn implied_by(&self, other: &Interval) -> bool {
        self.word == other.word && self.contains(other)
    }

    /// Whether `packet` carries the word and its value lies in the interval.
    pub fn holds(&self, packet: PacketView<'_>) -> bool {
        packet
            .word(usize::from(self.word))
            .is_some_and(|v| self.lo <= v && v <= self.hi)
    }

    /// Where the compare `op` of packet word `word` and literal `lit` — the
    /// word on the left when `word_is_left` — is true: `EQ` and the
    /// ordering operators; `None` for any other operator, and for an
    /// ordering compare no word passes (`< 0`, `> 0xFFFF`).
    pub fn of_compare(op: BinaryOp, word: u16, lit: u16, word_is_left: bool) -> Option<Self> {
        let (lo, hi) = match (op, word_is_left) {
            (BinaryOp::Eq, _) => (lit, lit),
            (BinaryOp::Lt, true) | (BinaryOp::Gt, false) => (0, lit.checked_sub(1)?),
            (BinaryOp::Le, true) | (BinaryOp::Ge, false) => (0, lit),
            (BinaryOp::Gt, true) | (BinaryOp::Lt, false) => (lit.checked_add(1)?, u16::MAX),
            (BinaryOp::Ge, true) | (BinaryOp::Le, false) => (lit, u16::MAX),
            _ => return None,
        };
        Some(Interval { word, lo, hi })
    }
}

/// One way a program accepts: every atom holds, on a packet that carries
/// the highest word read on the way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Disjunct {
    /// The atoms, in the order the program tests them.
    pub atoms: Vec<Interval>,
    /// The highest packet word read before the program accepts this way.
    pub max_read: Option<u16>,
}

impl Disjunct {
    /// Whether some atom reads the highest word read, so that a packet
    /// carrying every tested word is long enough for the program.
    pub fn covers(&self) -> bool {
        self.max_read
            .is_none_or(|m| self.atoms.iter().any(|a| a.word >= m))
    }

    /// The atoms sorted by word, one a word (the intersection of that
    /// word's atoms); `None` when some word's atoms never all hold.
    pub fn normalized(&self) -> Option<Vec<Interval>> {
        let mut atoms = self.atoms.clone();
        atoms.sort_unstable();
        let mut out: Vec<Interval> = Vec::with_capacity(atoms.len());
        for a in atoms {
            match out.last_mut() {
                Some(last) if last.word == a.word => {
                    (last.lo, last.hi) = (last.lo.max(a.lo), last.hi.min(a.hi));
                    if last.lo > last.hi {
                        return None;
                    }
                }
                _ => out.push(a),
            }
        }
        Some(out)
    }

    /// Whether the program accepts `packet` this way.
    pub fn holds(&self, packet: PacketView<'_>) -> bool {
        self.max_read
            .is_none_or(|m| packet.word(usize::from(m)).is_some())
            && self.atoms.iter().all(|a| a.holds(packet))
    }
}

/// A program's form (see the module docs).
///
/// # Examples
///
/// ```
/// use pf_filter::form::{Form, Interval};
/// use pf_filter::samples;
///
/// let form = Form::of(&samples::socket_range_filter(10, 100, 200));
/// let range = Interval { word: 8, lo: 100, hi: 200 };
/// assert_eq!(form.required(), [range, Interval::exact(1, 2)]);
/// let disjuncts = form.disjuncts().unwrap();
/// assert_eq!(disjuncts[0].normalized().unwrap(), [Interval::exact(1, 2), range]);
/// assert!(form.is_ordered());
/// assert_eq!(form.lead(), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Form {
    disjuncts: Option<Vec<Disjunct>>,
    ordered: bool,
    required: Vec<Interval>,
    lead: Option<Interval>,
}

impl Form {
    /// Analyzes `program`.
    pub fn of(program: &FilterProgram) -> Self {
        let words = program.words();
        let mut walk = Walk::default();
        let mut valid = walk.run(words);
        if walk.merging {
            // Whether a range guard stands alone in its block turns on the
            // values later code reads: when the walk guessed wrong, walk
            // again, knowing them.
            let kept = walk.closure(walk.roots.iter().chain(walk.conds.iter().map(|c| &c[0])));
            let uses = walk.uses(&kept);
            let dropped = walk.dropped(&kept, &uses);
            let kept = (kept, uses, dropped);
            if !walk.guessed_right(&kept) {
                walk = Walk {
                    kept: Some(kept),
                    ..Walk::default()
                };
                valid = walk.run(words);
            }
        }
        let valid = valid && words.len() <= MAX_PROGRAM_WORDS;
        Form {
            required: if valid { walk.required() } else { Vec::new() },
            disjuncts: (!walk.dnf.declined).then_some(walk.dnf.disjuncts),
            ordered: walk.dnf.ordered,
            lead: lead(words),
        }
    }

    /// The program as a disjunction, `None` when it is `Opaque`. An empty
    /// list is a program that never accepts.
    pub fn disjuncts(&self) -> Option<&[Disjunct]> {
        self.disjuncts.as_deref()
    }

    /// Whether the disjunction tests an ordering compare, so that not every
    /// atom is an equality the program tests as one.
    pub fn is_ordered(&self) -> bool {
        self.ordered
    }

    /// The atoms every packet the program accepts satisfies, in program
    /// order. Empty for a program that fails validation.
    pub fn required(&self) -> &[Interval] {
        &self.required
    }

    /// [`Form::required`], by value.
    pub fn into_required(self) -> Vec<Interval> {
        self.required
    }

    /// The program's first test, when it is `packet[word] == literal` by
    /// its first two instructions and rejects the packet at once when it
    /// fails: a `PUSHWORD` then a `PUSHLIT` or `PUSHZERO` under `CAND`, or
    /// under `EQ` as the whole program. It holds even of a program that
    /// fails validation after it.
    pub fn lead(&self) -> Option<Interval> {
        self.lead
    }

    /// The program's verdict on `packet`, read off the disjunction; `None`
    /// when the form is `Opaque`.
    pub fn accepts(&self, packet: PacketView<'_>) -> Option<bool> {
        Some(self.disjuncts.as_ref()?.iter().any(|d| d.holds(packet)))
    }
}

fn lead(words: &[u16]) -> Option<Interval> {
    let first = Instr::decode(*words.first()?)?;
    let (StackAction::PushWord(word), BinaryOp::Nop) = (first.action, first.op) else {
        return None;
    };
    let second = Instr::decode(*words.get(1)?)?;
    let (literal, len) = match second.action {
        StackAction::PushLit => (*words.get(2)?, 3),
        StackAction::PushZero => (0, 2),
        _ => return None,
    };
    let rejects = second.op == BinaryOp::Cand || second.op == BinaryOp::Eq && words.len() == len;
    rejects.then(|| Interval::exact(u16::from(word), literal))
}

/// A value as the disjunction sees it: a constant, a packet word, or a
/// boolean that is TRUE iff every atom holds.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Term {
    Const(u16),
    Word(u16),
    Test(Vec<Interval>),
}

/// `EQ` over [`Term`]s: a word against a literal is an atom; two
/// constants fold.
fn term_eq(t2: &Term, t1: &Term) -> Option<Term> {
    Some(match (t2, t1) {
        (Term::Word(n), Term::Const(c)) | (Term::Const(c), Term::Word(n)) => {
            Term::Test(vec![Interval::exact(*n, *c)])
        }
        (Term::Const(a), Term::Const(b)) => Term::Const(u16::from(a == b)),
        _ => return None,
    })
}

/// The disjunction's side of the walk.
#[derive(Debug, Default)]
struct Dnf {
    /// `Some` while the walk is in the fragment and some path goes on.
    stack: Option<Vec<Term>>,
    /// Left the fragment: the form is `Opaque`.
    declined: bool,
    /// The highest packet word read so far.
    max_read: Option<u16>,
    ordered: bool,
    /// Atoms `CAND`/`CNOR` required on the way to here.
    path: Vec<Interval>,
    disjuncts: Vec<Disjunct>,
    /// A `COR` alternative was recorded.
    alternatives: bool,
}

impl Dnf {
    fn decline(&mut self) {
        self.declined |= self.stack.take().is_some();
    }

    fn push(&mut self, term: Term) {
        if let Some(stack) = &mut self.stack {
            stack.push(term);
        }
    }

    fn pop2(&mut self) -> Option<(Term, Term)> {
        let stack = self.stack.as_mut()?;
        let t1 = stack.pop()?;
        Some((stack.pop()?, t1))
    }

    fn accept(&mut self, atoms: Vec<Interval>) {
        let max_read = self.max_read;
        self.disjuncts.push(Disjunct { atoms, max_read });
    }

    /// A non-short-circuit operator.
    fn operate(&mut self, op: BinaryOp) {
        let Some((t2, t1)) = self.pop2() else {
            return;
        };
        let truth = |t: &Term| match t {
            Term::Const(0) => Some(None),
            Term::Const(1) => Some(Some(Vec::new())),
            Term::Test(atoms) => Some(Some(atoms.clone())),
            Term::Const(_) | Term::Word(_) => None,
        };
        let r = match (op, &t2, &t1) {
            (BinaryOp::Eq, _, _) => term_eq(&t2, &t1),
            (BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge, a, b) => {
                self.ordered = true;
                let atom = match (a, b) {
                    (Term::Word(n), Term::Const(c)) => Interval::of_compare(op, *n, *c, true),
                    (Term::Const(c), Term::Word(n)) => Interval::of_compare(op, *n, *c, false),
                    _ => None,
                };
                atom.map(|a| Term::Test(vec![a]))
            }
            // `AND` of two booleans; of anything else it is bit-twiddling.
            (BinaryOp::And, _, _) => match (truth(&t2), truth(&t1)) {
                (Some(Some(mut a)), Some(Some(b))) => {
                    a.extend(b);
                    Some(if a.is_empty() {
                        Term::Const(1)
                    } else {
                        Term::Test(a)
                    })
                }
                (Some(_), Some(_)) => Some(Term::Const(0)),
                _ => None,
            },
            _ => None,
        };
        match r {
            Some(r) => self.push(r),
            None => self.decline(),
        }
    }

    /// A short-circuit operator; `ordering` says which of `T2` and `T1` is
    /// an ordering compare.
    fn short_circuit(&mut self, op: BinaryOp, ordering: [bool; 2]) {
        let Some((t2, t1)) = self.pop2() else {
            return;
        };
        match (op, term_eq(&t2, &t1)) {
            // Mixed COR/CAND forms would need per-branch paths.
            (BinaryOp::Cand | BinaryOp::Cnor, _) if self.alternatives => self.decline(),
            (BinaryOp::Cor, _) if !self.path.is_empty() => self.decline(),
            // Continuing past a CAND implies its test held.
            (BinaryOp::Cand, Some(Term::Test(atoms))) => {
                self.path.extend(atoms);
                self.push(Term::Const(1));
            }
            (BinaryOp::Cand, Some(Term::Const(0))) => self.stack = None,
            (BinaryOp::Cand, Some(Term::Const(_))) => self.push(Term::Const(1)),
            // A COR accepts on its test alone.
            (BinaryOp::Cor, Some(Term::Test(atoms))) => {
                self.alternatives = true;
                self.accept(atoms);
                self.push(Term::Const(0));
            }
            (BinaryOp::Cor, Some(Term::Const(0))) => self.push(Term::Const(0)),
            (BinaryOp::Cor, Some(Term::Const(_))) => {
                self.accept(Vec::new());
                self.stack = None;
            }
            // `CNOR 0` on an ordering compare requires the compare.
            (BinaryOp::Cnor, _) => match (t2, t1, ordering) {
                (Term::Test(atoms), Term::Const(0), [true, _])
                | (Term::Const(0), Term::Test(atoms), [_, true]) => {
                    self.path.extend(atoms);
                    self.push(Term::Const(0));
                }
                _ => self.decline(),
            },
            _ => self.decline(),
        }
    }

    /// The end of the program: it accepts when the top of the stack is
    /// non-zero.
    fn finish(&mut self) {
        let Some(mut stack) = self.stack.take() else {
            return;
        };
        let atoms = match stack.pop() {
            None | Some(Term::Const(0)) => return,
            Some(Term::Const(_)) => Vec::new(),
            Some(Term::Test(atoms)) => atoms,
            Some(Term::Word(_)) => {
                self.declined = true;
                return;
            }
        };
        let mut all = Vec::with_capacity(self.path.len() + atoms.len());
        all.extend(&self.path);
        all.extend(atoms);
        self.accept(all);
    }
}

/// A value of the required atoms' domain: an index into [`Walk::nodes`].
type Sym = u32;

/// What a value is. Values are hash-consed: one operator on the same
/// operands is one value, as in the compiled rungs' value numbering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Node {
    Const(u16),
    Word(u16),
    Bin(BinaryOp, Sym, Sym),
    /// An indirect load of the word the first value indexes; the second,
    /// its own index, keeps any two loads apart.
    Ind(Sym, Sym),
    /// An operation that faults on its constant operands.
    Fault(Sym),
}

/// What a first walk learned of the code the compiled rungs keep: which
/// values some branch, the verdict or a faulting operation reads; how
/// often each is read; and which constants and loads only fused guards
/// read, so that the code drops them.
type Kept = (Vec<bool>, Vec<u32>, Vec<bool>);

/// The state of the one pass over a program's words.
#[derive(Debug, Default)]
struct Walk {
    /// Every value made, in order. A program is at most 256 words, so a
    /// value is looked up by a scan, with no hashing.
    nodes: Vec<Node>,
    stack: Vec<Sym>,
    dnf: Dnf,
    /// Each atom's ordinal: the place of its first test in program order.
    atoms: Vec<(Interval, usize)>,
    ordinals: usize,
    /// Whether code here is reached: a constant short-circuit operator may
    /// end every path.
    live: bool,
    /// The atoms branches tested on the way to here, with their ordinals
    /// and whether the path goes on with each true.
    tests: Vec<(usize, Interval, bool)>,
    /// Every atom a branch tests.
    tested: Vec<(usize, Interval)>,
    /// Values read other than at a branch: the verdict, and every
    /// operation that can fault.
    roots: Vec<Sym>,
    /// Every branch's condition, and its block: the values made from the
    /// one after the last short-circuit operator up to the branch.
    conds: Vec<[Sym; 3]>,
    /// The last branch: the lengths of `tests`, `tested` and `conds`
    /// before it, and the verdict it exits with.
    last_branch: Option<([usize; 3], bool)>,
    /// A block between the last branch and here holds code.
    blocked: bool,
    /// The last branch, when it is a range guard: its place in `tests`
    /// and the verdict it exits with.
    guard: Option<(usize, bool)>,
    /// The first value of the current block.
    segment: Sym,
    /// The atoms every accepting path so far tests true; `None` before the
    /// first accepting path.
    accepting: Option<Vec<(usize, Interval)>>,
    /// Every path left at an empty range guard: the code after it is
    /// tested but never reached.
    exited: bool,
    /// Two range guards on one word met (see [`Walk::branch`]).
    merging: bool,
    kept: Option<Kept>,
    /// What [`Walk::decide`] guessed, before `kept` was known.
    guesses: Vec<([Sym; 3], bool, bool)>,
}

impl Walk {
    /// Walks `words`; returns whether the program validates.
    fn run(&mut self, words: &[u16]) -> bool {
        // Room for two values a word, what a program of tests makes, so
        // that the list is allocated once (a longer one still grows).
        self.nodes.reserve(2 * words.len());
        self.live = true;
        self.dnf.stack = Some(Vec::new());
        if words.is_empty() {
            // The historical rule: a zero-length filter accepts everything.
            self.dnf.accept(Vec::new());
            self.dnf.stack = None;
            self.accept(None);
            return true;
        }
        let mut pc = 0;
        while pc < words.len() {
            let Some(instr) = Instr::decode(words[pc]) else {
                self.dnf.decline();
                return false;
            };
            pc += 1;
            let pushed = match instr.action {
                StackAction::NoPush => None,
                StackAction::PushLit => {
                    let Some(&lit) = words.get(pc) else {
                        self.dnf.decline();
                        return false;
                    };
                    pc += 1;
                    Some((Node::Const(lit), Term::Const(lit)))
                }
                StackAction::PushWord(n) => {
                    let n = u16::from(n);
                    if self.dnf.stack.is_some() {
                        self.dnf.max_read = self.dnf.max_read.max(Some(n));
                    }
                    Some((Node::Word(n), Term::Word(n)))
                }
                StackAction::PushInd => {
                    self.dnf.decline();
                    let Some(index) = self.stack.pop() else {
                        return false;
                    };
                    let sym = self.unique(|s| Node::Ind(index, s));
                    self.stack.push(sym);
                    None
                }
                named => {
                    let c = named.constant().unwrap_or_default();
                    Some((Node::Const(c), Term::Const(c)))
                }
            };
            if let Some((node, term)) = pushed {
                if self.stack.len() == STACK_SIZE {
                    // The interpreter faults here: nothing is known past it.
                    self.dnf.decline();
                    return false;
                }
                let sym = self.node(node);
                self.stack.push(sym);
                self.dnf.push(term);
            }
            if instr.op.pops() {
                let (Some(t1), Some(t2)) = (self.stack.pop(), self.stack.pop()) else {
                    self.dnf.decline();
                    return false;
                };
                let r = match instr.op.short_circuit_rule() {
                    Some((terminate_when, verdict)) => {
                        let ordering = [self.is_ordering(t2), self.is_ordering(t1)];
                        self.dnf.short_circuit(instr.op, ordering);
                        self.short_circuit(t2, t1, terminate_when, verdict)
                    }
                    None => {
                        self.dnf.operate(instr.op);
                        self.bin(instr.op, t2, t1)
                    }
                };
                self.stack.push(r);
            }
        }
        self.dnf.finish();
        if self.live {
            self.finish();
        }
        true
    }

    fn node(&mut self, node: Node) -> Sym {
        let found = self.nodes.iter().position(|&n| n == node);
        found.unwrap_or_else(|| {
            self.nodes.push(node);
            self.nodes.len() - 1
        }) as Sym
    }

    /// A value no other equals, made by an operation that can fault: the
    /// code keeps it.
    fn unique(&mut self, node: impl FnOnce(Sym) -> Node) -> Sym {
        let sym = self.nodes.len() as Sym;
        self.nodes.push(node(sym));
        if self.live {
            self.roots.push(sym);
        }
        sym
    }

    fn constant(&self, sym: Sym) -> Option<u16> {
        match self.nodes[sym as usize] {
            Node::Const(c) => Some(c),
            _ => None,
        }
    }

    fn word(&self, sym: Sym) -> Option<u16> {
        match self.nodes[sym as usize] {
            Node::Word(w) => Some(w),
            _ => None,
        }
    }

    /// The atom a compare value is, when it compares a word with a literal.
    fn atom(&self, sym: Sym) -> Option<Interval> {
        let Node::Bin(op, a, b) = self.nodes[sym as usize] else {
            return None;
        };
        match (
            self.word(a),
            self.constant(b),
            self.word(b),
            self.constant(a),
        ) {
            (Some(w), Some(l), _, _) => Interval::of_compare(op, w, l, true),
            (_, _, Some(w), Some(l)) => Interval::of_compare(op, w, l, false),
            _ => None,
        }
    }

    /// Where `atom` sorts among the atoms tested: after every other when a
    /// merge took its first test away.
    fn ordinal(&self, atom: Interval) -> usize {
        let found = self.atoms.iter().find(|a| a.0 == atom);
        found.map_or(self.ordinals, |a| a.1)
    }

    fn is_ordering(&self, sym: Sym) -> bool {
        use BinaryOp::{Ge, Gt, Le, Lt};
        matches!(self.nodes[sym as usize], Node::Bin(Lt | Le | Gt | Ge, _, _))
    }

    /// The value `op(a, b)`: folded when both are constants or one value
    /// twice.
    fn bin(&mut self, op: BinaryOp, a: Sym, b: Sym) -> Sym {
        let folded = match (self.constant(a), self.constant(b)) {
            (Some(x), Some(y)) => match op.apply(x, y) {
                Some(v) => Some(v),
                None => return self.unique(Node::Fault),
            },
            _ if a == b => match op {
                BinaryOp::Eq | BinaryOp::Le | BinaryOp::Ge => Some(1),
                BinaryOp::Neq | BinaryOp::Lt | BinaryOp::Gt | BinaryOp::Xor | BinaryOp::Sub => {
                    Some(0)
                }
                _ => None,
            },
            _ => None,
        };
        let sym = self.node(folded.map_or(Node::Bin(op, a, b), Node::Const));
        if folded.is_none() && matches!(op, BinaryOp::Div | BinaryOp::Mod) && self.live {
            self.roots.push(sym);
        }
        if let Some(atom) = self.atom(sym) {
            if !self.atoms.iter().any(|a| a.0 == atom) {
                self.atoms.push((atom, self.ordinals));
                self.ordinals += 1;
            }
        }
        sym
    }

    /// A short-circuit operator: `R := (T2 == T1)`, and the program ends
    /// with `verdict` when `R` is `terminate_when`. Returns the value the
    /// continuing path pushes.
    fn short_circuit(&mut self, t2: Sym, t1: Sym, terminate_when: bool, verdict: bool) -> Sym {
        let r = self.bin(BinaryOp::Eq, t2, t1);
        let code = self.nodes.len() as Sym > self.segment;
        match self.constant(r) {
            _ if !self.live => {}
            Some(c) if (c != 0) == terminate_when => {
                // Every path ends here. The last branch, when it continues
                // straight to this block of dead code and leaves the same
                // way, has both arms alike: it tests nothing. (Through no
                // code at all, its continuation is the exit itself.)
                let faults = self.roots.last().is_some_and(|&f| f >= self.segment);
                if let Some(([tests, tested, conds], exit)) = self.last_branch {
                    if exit == verdict && code && !self.blocked && !faults {
                        self.tests.truncate(tests);
                        self.tested.truncate(tested);
                        self.conds.truncate(conds);
                    }
                }
                if verdict {
                    self.accept(None);
                }
                self.live = false;
            }
            Some(_) => self.blocked |= code,
            None => {
                let before = [self.tests.len(), self.tested.len(), self.conds.len()];
                self.branch(r, terminate_when, verdict);
                (self.last_branch, self.blocked) = (Some((before, verdict)), false);
            }
        }
        // The value the continuing path pushes opens the next block.
        self.segment = self.nodes.len() as Sym;
        self.node(Node::Const(u16::from(!terminate_when)))
    }

    /// A branch on the non-constant comparison `r`; a comparison of an
    /// ordering compare with zero branches on the compare, arms swapped.
    /// A range guard — the compare fused into the branch, which exits when
    /// the compare fails — that exits where the guard just before it does,
    /// on the same word and with nothing between them, merges into that
    /// guard as the intersection of the two.
    fn branch(&mut self, r: Sym, terminate_when: bool, verdict: bool) {
        let tested = match self.nodes[r as usize] {
            Node::Bin(BinaryOp::Eq, a, b) if self.constant(b) == Some(0) && self.is_ordering(a) => {
                a
            }
            Node::Bin(BinaryOp::Eq, a, b) if self.constant(a) == Some(0) && self.is_ordering(b) => {
                b
            }
            _ => r,
        };
        // The atom's truth on the path that continues.
        let continues = terminate_when == (tested != r);
        self.conds
            .push([tested, self.segment, self.nodes.len() as Sym]);
        let Some(atom) = self.atom(tested) else {
            self.guard = None;
            if verdict {
                self.accept(None);
            }
            return;
        };
        let guard = tested != r && continues && self.decide(false, tested, r);
        if let Some((at, _)) = self.guard.filter(|g| guard && g.1 == verdict) {
            let prior = self.tests[at].1;
            self.merging |= prior.word == atom.word;
            if prior.word == atom.word && self.decide(true, tested, r) {
                let (lo, hi) = (prior.lo.max(atom.lo), prior.hi.min(atom.hi));
                self.tested.retain(|t| t.1 != prior);
                // Neither interval is tested where it was.
                self.atoms.retain(|a| a.0 != prior && a.0 != atom);
                if lo <= hi {
                    let merged = Interval { lo, hi, ..atom };
                    self.tests[at].1 = merged;
                    self.tested.push((self.tests[at].0, merged));
                } else {
                    // No value passes both: every path leaves here.
                    self.tests.truncate(at);
                    self.guard = None;
                }
                if verdict {
                    self.accept(None);
                }
                self.exited |= lo > hi;
                return;
            }
        }
        let ordinal = self.ordinal(atom);
        self.tested.push((ordinal, atom));
        if verdict {
            self.accept((!continues).then_some((ordinal, atom)));
        }
        self.tests.push((ordinal, atom, continues));
        self.guard = guard.then(|| (self.tests.len() - 1, verdict));
    }

    /// Whether a branch on compare `x` in the block of values `start` up
    /// to `end` fuses with it into one guard: the branch is all that reads
    /// the compare, the last value the block keeps, after one more at least.
    fn fuses(&self, (kept, uses, _): &Kept, [x, start, end]: [Sym; 3]) -> bool {
        let mut block = (start..end).filter(|&s| kept[s as usize]);
        self.atom(x).is_some()
            && uses[x as usize] == 1
            && block.clone().count() >= 2
            && block.next_back() == Some(x)
    }

    /// Whether the guard on compare `x` in the block of values `start` up
    /// to `end` is all the block holds in the code.
    fn stands_alone(&self, (kept, _, dropped): &Kept, [x, start, end]: [Sym; 3]) -> bool {
        (start..end).all(|s| s == x || !kept[s as usize] || dropped[s as usize])
    }

    /// [`Walk::fuses`] (`alone` false) or [`Walk::stands_alone`] for the
    /// branch at hand. Before the walk knows what the code keeps, it
    /// guesses — a compare made in the block fuses, and a guard stands
    /// alone when nothing else was made in its block but its operands and
    /// its comparison with zero — and notes the guess to check.
    fn decide(&mut self, alone: bool, x: Sym, r: Sym) -> bool {
        let block = [x, self.segment, self.nodes.len() as Sym];
        if let Some(k) = &self.kept {
            return if alone {
                self.stands_alone(k, block)
            } else {
                self.fuses(k, block)
            };
        }
        let Node::Bin(_, a, b) = self.nodes[x as usize] else {
            return false;
        };
        let guess = match alone {
            true => (block[1]..block[2]).all(|s| [x, r, a, b].contains(&s)),
            false => x >= block[1],
        };
        self.guesses.push((block, alone, guess));
        guess
    }

    /// Whether every guess [`Walk::decide`] made holds, given what the code
    /// keeps.
    fn guessed_right(&self, k: &Kept) -> bool {
        self.guesses.iter().all(|&(block, alone, guess)| {
            guess
                == if alone {
                    self.stands_alone(k, block)
                } else {
                    self.fuses(k, block)
                }
        })
    }

    /// Every value `from` reads, themselves included.
    fn closure<'a>(&self, from: impl IntoIterator<Item = &'a Sym>) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let mut work: Vec<Sym> = from.into_iter().copied().collect();
        while let Some(s) = work.pop() {
            if !std::mem::replace(&mut seen[s as usize], true) {
                match self.nodes[s as usize] {
                    Node::Bin(_, a, b) => work.extend([a, b]),
                    Node::Ind(index, _) => work.push(index),
                    _ => {}
                }
            }
        }
        seen
    }

    /// How often the code reads each value it keeps: as an operand, as a
    /// branch's condition and as the verdict.
    fn uses(&self, kept: &[bool]) -> Vec<u32> {
        let mut uses = vec![0; self.nodes.len()];
        for (s, node) in self.nodes.iter().enumerate() {
            match *node {
                Node::Bin(_, a, b) if kept[s] => [a, b].iter().for_each(|&o| uses[o as usize] += 1),
                Node::Ind(index, _) if kept[s] => uses[index as usize] += 1,
                _ => {}
            }
        }
        for &s in self.roots.iter().chain(self.conds.iter().map(|c| &c[0])) {
            uses[s as usize] += 1;
        }
        uses
    }

    /// The constants and loads that only fused guards read.
    fn dropped(&self, kept: &[bool], uses: &[u32]) -> Vec<bool> {
        let mut left = uses.to_vec();
        let known = (kept.to_vec(), uses.to_vec(), Vec::new());
        for &cond in self.conds.iter().filter(|&&c| self.fuses(&known, c)) {
            if let Node::Bin(_, a, b) = self.nodes[cond[0] as usize] {
                left[a as usize] -= 1;
                left[b as usize] -= 1;
            }
        }
        let operand = |s: usize| matches!(self.nodes[s], Node::Const(_) | Node::Word(_));
        (0..self.nodes.len())
            .map(|s| kept[s] && left[s] == 0 && operand(s))
            .collect()
    }

    /// Records an accepting path, on which the path's atoms and `own` hold.
    fn accept(&mut self, own: Option<(usize, Interval)>) {
        if self.exited {
            return;
        }
        let holds = self.tests.iter().filter(|t| t.2).map(|t| (t.0, t.1));
        let on_path: Vec<(usize, Interval)> = holds.chain(own).collect();
        match &mut self.accepting {
            None => self.accepting = Some(on_path),
            Some(all) => all.retain(|a| on_path.iter().any(|b| b.1 == a.1)),
        }
    }

    /// The end of the program, reached: it accepts when the value on top of
    /// the stack is non-zero.
    fn finish(&mut self) {
        let Some(&top) = self.stack.last() else {
            return;
        };
        match self.constant(top) {
            Some(0) => {}
            Some(_) => self.accept(None),
            None => {
                self.roots.push(top);
                let atom = self.atom(top);
                self.accept(atom.map(|a| (self.ordinal(a), a)));
            }
        }
    }

    /// The required atoms: those every accepting path tests true or, when
    /// no path accepts, every atom the code tests.
    fn required(&mut self) -> Vec<Interval> {
        let mut atoms = self.accepting.take().unwrap_or_else(|| {
            let unknown = self.conds.iter().filter(|c| self.atom(c[0]).is_none());
            let read = self.closure(self.roots.iter().chain(unknown.map(|c| &c[0])));
            let computed = (0..self.nodes.len() as Sym).filter(|&s| read[s as usize]);
            let atoms = computed
                .filter_map(|s| self.atom(s))
                .map(|a| (self.ordinal(a), a));
            self.tested.iter().copied().chain(atoms).collect()
        });
        atoms.sort_unstable();
        let mut out: Vec<Interval> = Vec::with_capacity(atoms.len());
        for (_, a) in atoms {
            if !out.contains(&a) {
                out.push(a);
            }
        }
        out
    }
}
