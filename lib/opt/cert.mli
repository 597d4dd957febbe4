(** Rewrite certificates: the optimizer's trust boundary.

    Every pass in {!Pipeline} emits a certificate — the program before and
    after the rewrite, tagged with the pass name — and the rewrite is only
    applied once the certificate {e discharges}. Two independent proofs
    must hold, both from the proof module {!Analysis.Certify}:

    - when the input certifies as a sorting kernel
      ({!Analysis.Certify.sorts}), the output must re-certify; and
    - the output must be {!Analysis.Certify.equivalent} to the input:
      bit-identical on the observable value registers for {e every} one of
      the [n!] input permutations.

    A pass that fails either check is {e refused}: the optimizer can
    decline to optimize but can never miscompile.

    Note that the sound-for-networks 0-1 shortcut ({!Machine.Zeroone}) is
    deliberately {e not} used here: the paper's §2.3 witness shows a cmov
    kernel can sort all [2^n] binary inputs yet fail on a permutation, so
    rewrite certificates over arbitrary kernels must quantify over all
    [n!] permutations. The cheap check only becomes sound after a kernel
    has been {e extracted} to a pure comparator network ({!Extract}). *)

type t = {
  pass : string;  (** Name of the pass proposing the rewrite. *)
  before : Isa.Program.t;
  after : Isa.Program.t;
}

val discharge : Isa.Config.t -> t -> (unit, string) result
(** [Ok ()] iff [after] re-certifies whenever [before] certified {e and}
    produces the same value-register contents as [before] on every input
    permutation. The error message names the pass and a concrete
    counterexample permutation: the certifier's counterexample line when
    the rewrite stops sorting, else the first permutation the two
    programs disagree on. *)
