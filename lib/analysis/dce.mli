(** Proof-carrying dead-code elimination.

    Deletes instructions that the dataflow analysis proves dead (dead
    writes, unconsumed [cmp]s, orphan conditional moves) or the abstract
    interpreter proves to be semantic no-ops, iterating to a fixpoint.
    The two families alternate in separate passes with the analyses
    recomputed in between — a liveness-dead instruction may be exactly what
    justified another instruction's no-op proof, so deleting members of
    both sets computed on the same program would be unsound.

    The rewrite is {e proof-carrying}: the optimized program must be
    {!Certify.equivalent} to the input (bit-identical value-register
    outputs on every one of the [n!] input permutations), and when the
    input kernel certifies as sorting, the output must re-certify under
    {!Certify.sorts}. If either proof fails the rewrite is refused and the
    original program returned untouched — the optimizer can decline to
    optimize, but can never miscompile. *)

type removal = { index : int; rule : Lint.rule }
(** One deleted instruction: [index] is its position in the {e original}
    program; [rule] is the proof that justified the deletion
    ({!Lint.Dead_write}, {!Lint.Dead_cmp}, {!Lint.Orphan_cmov}, or
    {!Lint.Semantic_noop}). *)

type result = {
  optimized : Isa.Program.t;
  removed : removal list;  (** Ascending by original index. *)
  passes : int;  (** Analysis passes run until the fixpoint. *)
  certified : bool;
      (** Did the optimized program pass {!Certify.sorts}? (Equals the
          input's certification status: DCE preserves behavior.) *)
  refused : bool;
      (** True iff a shrink was found but failed re-verification and was
          thrown away. Always [false] unless the analyses are buggy; the
          field exists so tests can assert that. *)
}

val run : Isa.Config.t -> Isa.Program.t -> result
(** Optimize [p] to fixpoint. [optimized] is never longer than [p], and
    [Machine.Exec.run] agrees with [p] on the value registers for every
    input permutation. *)
