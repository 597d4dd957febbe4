(** Lint engine: typed findings over the dataflow and abstract analyses.

    Severities: an [Error] finding is a proof that the kernel is defective —
    either an instruction is provably removable (the kernel is not minimal)
    or the kernel does not sort. A [Warning] flags legal-but-suspicious
    code (reading the constant 0 from a never-written scratch register). *)

type severity = Error | Warning

type rule =
  | Dead_write
      (** A (conditional) move whose destination is never read afterwards
          before being unconditionally overwritten or ignored at exit. *)
  | Dead_cmp
      (** A [cmp] whose flags are never consumed before the next [cmp]
          clobbers them or the program ends. *)
  | Redundant_cmp
      (** A [cmp] repeating the in-effect cmp's exact operand pair, with
          no intervening flag-reading or operand-writing instruction: the
          flags it computes are already set. The finding anchors to the
          {e second} cmp of the pair (the removable one). *)
  | Orphan_cmov
      (** A conditional move with no reaching [cmp]: both flags still hold
          their initial cleared state, so the move can never fire. *)
  | Uninit_scratch_read
      (** A read of a scratch register that no earlier instruction wrote:
          the value is the constant 0 (below every input value). *)
  | Trailing_code
      (** A maximal trailing run of instructions none of which can affect
          the value registers at exit. *)
  | Semantic_noop
      (** The abstract interpreter proved the instruction changes no
          reachable assignment ({!Absint.semantic_noops}). *)
  | Not_sorting
      (** {!Certify.sorts} rejected the program; the message is its
          confirmed counterexample line. *)

type finding = {
  rule : rule;
  severity : severity;
  index : int option;
      (** Instruction index (0-based) the finding is anchored to; [None]
          for whole-program findings ([Not_sorting]). *)
  message : string;
}

val rule_id : rule -> string
(** Stable kebab-case identifier, e.g. ["dead-write"]. *)

val severity_of_rule : rule -> severity
(** The fixed severity each rule reports at ({!Uninit_scratch_read} is the
    only [Warning]). *)

val severity_to_string : severity -> string

val rules : rule list
(** Every rule, in declaration order — the row order of
    [synth lint --rules] and the README rule table. *)

val describe : rule -> string
(** One-line description of what the rule fires on, byte-identical to the
    README rule table (pinned by a test). *)

val check : Isa.Config.t -> Isa.Program.t -> finding list
(** Dataflow-only lints ({!Dead_write}, {!Dead_cmp}, {!Redundant_cmp},
    {!Orphan_cmov}, {!Uninit_scratch_read}, {!Trailing_code}), sorted by
    instruction index (ties broken by severity, then rule id, so reports
    are byte-stable). Purely syntactic — never executes the program. *)

val check_all : Isa.Config.t -> Isa.Program.t -> finding list
(** {!check} plus the semantic lints: {!Semantic_noop} findings from the
    abstract interpreter (on instructions not already carrying an [Error])
    and a {!Not_sorting} finding when {!Certify.sorts} rejects the kernel.
    This is the full analyzer the registry and CLI run. *)

val errors : finding list -> finding list
(** The [Error]-severity subset. *)

val summary : finding list -> string
(** One-line human summary, e.g. ["3 findings (2 errors, 1 warning)"]. *)

val to_json : ?line:int -> finding -> Jsonv.t
(** One finding as a JSON object:
    [{"rule":…,"severity":…,"index":…,"line":…,"message":…}]. [index] and
    [line] are [null] when absent. *)

val report_json : ?file:string -> ?lines:int array -> finding list -> Jsonv.t
(** A JSON report [{"file":…,"findings":[…],"errors":N,"warnings":N}].
    [lines] maps instruction indices to 1-based source lines (as returned
    by {!Isa.Program.of_string_numbered}) so findings and parse
    diagnostics share coordinates. *)
