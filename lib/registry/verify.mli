(** The registry's name for the proof module's sortedness checks: an alias
    of {!Analysis.Certify}, like {!Json} is of {!Jsonv}. Library code calls
    {!Analysis.Certify} directly; this module stays for the benchmark
    program under [perfbench/], which times both checks by these names. *)

val certify : Isa.Config.t -> Isa.Program.t -> (unit, string) result
(** {!Analysis.Certify.exact}: the kernel run on all [n!] permutations
    ({!Machine.Exec}). [Ok ()] iff it sorts them all; the error names the
    first failing input and the produced output. *)

val certify_fast : Isa.Config.t -> Isa.Program.t -> (unit, string) result
(** {!Analysis.Certify.sorts}: the symbolic certifier, with {!certify} as
    the fallback on an [Unknown] verdict. Same [Ok]/[Error] contract. *)
