(** The proof module: the one place that decides "this kernel sorts" and
    "these two kernels are equivalent".

    Every trust boundary (registry load and insert, the scheduler's
    post-synthesis check), the optimizer's rewrite certificates, the
    analyzer ({!Lint}'s [not-sorting] rule, {!Dce}) and the CLI route
    through {!sorts} and {!equivalent}. The process-wide counters
    {!Obs.Process.symbolic_proofs}, {!Obs.Process.exact_fallbacks} and
    {!Obs.Process.certifications} are ticked only here, so they count every
    proof the process ran.

    {!sorts} runs the symbolic order-poset certifier ({!Symcert}) first.
    Only on an [Unknown] verdict does it run the one exact fallback,
    {!exact}: all [n!] permutations through {!Machine.Exec}. The 0-1
    shortcut ({!Machine.Zeroone}) is never used: it is unsound for cmov
    kernels (paper §2.3). *)

val sorts :
  ?max_worlds:int -> Isa.Config.t -> Isa.Program.t -> (unit, string) result
(** [Ok ()] iff the kernel sorts all [n!] permutations. [Error] is a
    confirmed counterexample line,
    ["kernel of length L fails on input [..]: produced [..]"]. A [Proved]
    symbolic verdict ticks {!Obs.Process.symbolic_proofs}; [Refuted] needs
    no counter; [Unknown] ticks {!Obs.Process.exact_fallbacks} and runs
    {!exact}. [max_worlds] is passed to {!Symcert.certify}; tests starve it
    to force the fallback. *)

type outcome = {
  symbolic : Symcert.verdict;
      (** The symbolic certifier's verdict. The exact fallback ran iff this
          is [Unknown]. *)
  result : (unit, string) result;  (** What {!sorts} returns. *)
}

val decide : ?max_worlds:int -> Isa.Config.t -> Isa.Program.t -> outcome
(** {!sorts} with the symbolic verdict kept, for [synth certify], which
    reports how the answer was reached. Same counters. *)

val exact : Isa.Config.t -> Isa.Program.t -> (unit, string) result
(** The exact fallback on its own: the paper's correctness procedure, the
    kernel run on all [n!] permutations. Ticks
    {!Obs.Process.certifications}. The
    error names the lexicographically first failing input. *)

type difference = { input : int array; out_a : int array; out_b : int array }
(** A permutation of [1..n] on which two kernels' value registers differ,
    with both outputs. *)

val equivalent :
  Isa.Config.t -> Isa.Program.t -> Isa.Program.t -> (unit, difference) result
(** [Ok ()] iff the two kernels leave the same value-register contents on
    every one of the [n!] input permutations, run on the packed
    {!Machine.Assign} executor. Neither kernel needs to sort. Because the
    ISA is constant-free, agreement on all permutations implies agreement
    on arbitrary inputs. [Error] carries the lexicographically first
    differing permutation. Scratch contents and flags are not observable;
    [cfg] must be wide enough for both kernels. *)
