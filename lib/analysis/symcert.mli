(** Symbolic sortedness certifier: a relational order-poset abstract
    domain over straight-line [mov]/[cmp]/[cmovl]/[cmovg] kernels.

    The certifier executes the kernel once {e symbolically}: every
    register holds a symbolic value id ({!Order} universe — id 0 is the
    constant zero scratch registers start with, ids [1..n] the inputs),
    the flags are concrete per world ([cmp] outcomes are definite once
    the operand order is fixed), and a world's poset records exactly the
    order facts proven on its path. A [cmp] whose operand pair the poset
    already decides stays deterministic; an undecided pair case-splits
    the world into a [<] branch and a [>] branch, each refining its own
    copy of the poset. Conditional moves are deterministic {e within} a
    world because the flags are concrete there — the disjunction of
    worlds is where the join lives.

    Worlds are deduplicated up to a renaming of the input ids (inputs are
    exchangeable: the initial poset and the final sortedness question are
    both renaming-invariant), keyed on the canonical
    (register map, flags, poset) triple. This is what keeps the world
    count far below [n!] on real kernels.

    The verdict lattice:

    - [Proved] — in {e every} final world the value registers hold [n]
      distinct non-zero ids forming a poset-proven ascending chain. Any
      concrete input belongs to some world, so the kernel sorts all [n!]
      permutations.
    - [Refuted] — some final world's output is provably wrong (a broken
      chain, a duplicated id, a constant zero, or an input value that no
      register holds any more), and the concrete counterexample built
      from a linear extension of that world's poset was {e confirmed} by
      direct execution ({!Machine.Exec}). Never returned unconfirmed.
    - [Unknown] — the world budget ran out, or a constructed
      counterexample failed to confirm (a certifier bug, reported
      honestly). The caller {b must} fall back to the exact [n!] check —
      {!Certify.sorts} does exactly that, making every caller sound by
      construction.

    The {!Machine.Zeroone} gap kernels — correct on all [2^n] binary
    inputs yet wrong on a permutation — are the adversarial regression:
    the poset domain tracks full orders, not 0-1 cuts, so they come back
    [Refuted] (or [Unknown] under a starved budget), never [Proved]. *)

type verdict =
  | Proved
  | Refuted of { input : int array; output : int array }
      (** [input] is a permutation of [1..n] the kernel mis-sorts;
          [output] is what it produced. Confirmed by execution. *)
  | Unknown of string  (** Why the certifier gave up. *)

val certify : ?max_worlds:int -> Isa.Config.t -> Isa.Program.t -> verdict
(** Run the symbolic certifier. [max_worlds] (default [20_000]) bounds
    the live world count at any program point; exceeding it yields
    [Unknown], never an unsound verdict. *)

val explain : verdict -> string
(** One-line human rendering of a verdict. *)

val verdict_name : verdict -> string
(** ["proved"], ["refuted"], or ["unknown"] — stable strings for JSON. *)
