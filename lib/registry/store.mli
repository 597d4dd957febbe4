(** Content-addressed, verified on-disk kernel store.

    Layout under a root directory (v2, {e sharded}):
    {v
    <root>/store/<hh>/<hash>/kernel.txt   Isa.Program.to_string form
    <root>/store/<hh>/<hash>/meta.json    key + length + stats digest + cost
    <root>/quarantine/<hash>[.N]/         failed entries, plus a reason.txt
    v}
    where [<hash>] is {!Key.hash} of the request and [<hh>] its first two
    hex digits — the MD5 keyspace fans out across up to 256 prefix
    directories, so maintenance scans readdir 1/256th of the store at a
    time instead of one directory holding every entry. The flat v1 layout
    ([<root>/store/<hash>/]) remains fully readable: every load checks
    the shard position first and falls back to the flat one, and
    {!migrate} renames flat entries into their shards ([synth registry
    migrate]). New inserts always publish sharded.

    Inserts are crash-safe:
    staged in a temp directory, fsynced file-by-file (and the directory
    itself), then renamed into place — so a crash at any instant leaves
    either no entry or a complete one, never a half-written one that could
    be served. Loads re-certify the kernel ({!Analysis.Certify.sorts}: the
    symbolic certifier, with the exact [n!] check as the [Unknown]
    fallback) and cross-check the metadata, and any failure
    {e quarantines} the entry — moves it aside with a recorded reason —
    rather than serving it. A quarantined request therefore looks like a
    miss to callers, who re-synthesize and re-insert. {!recover} is the
    open-time sweep that rolls torn temp directories back and
    re-quarantines structurally broken entries left by a crash.

    Degraded results — kernels produced by the scheduler's
    non-optimality-preserving degradation ladder — are never stored:
    {!insert} refuses them, every legitimate [meta.json] records
    ["degraded": false], and a tampered entry claiming [true] is
    quarantined on load. The store only ever holds results that are
    optimal under their key's pruning configuration. *)

type counters = {
  mutable hits : int;
  mutable misses : int;
  mutable quarantined : int;
  mutable inserted : int;
  mutable lint_errors : int;
      (** Entries that certified but carried ERROR-level static-analysis
          findings during a [~lint:true] {!verify_all} sweep (a subset of
          [quarantined]). *)
  mutable recovered : int;
      (** Torn temp directories rolled back by {!recover}. *)
}
(** Mutable tallies for one serving session. [hits], [misses], and
    [quarantined] are disjoint per lookup. *)

val fresh_counters : unit -> counters

val counters_json : counters -> Jsonv.t
(** The counters as a JSON object, e.g. [{"hits":1,"misses":0,...}] — the
    value handed to {!Search.Stats.to_json}'s [extra] field. *)

type provenance = {
  optimized_from : string;
      (** MD5 digest (hex) of the pre-optimization kernel text. *)
  passes : string list;
      (** Certified optimizer passes applied, in application order
          ({!Opt.Pipeline} delta names; a pass can appear more than
          once). *)
}
(** Recorded in [meta.json] when the stored kernel is not the raw search
    output but the optimizer pipeline's rewrite of it. *)

type entry = {
  key : Key.t;
  program : Isa.Program.t;
  length : int;
  solution_count : int;
  expanded : int;  (** Search-stats digest of the producing run. *)
  elapsed : float;  (** Seconds the producing search took. *)
  predicted_cost : float;  (** {!Perf.Cost.predicted_cost} of the kernel. *)
  degraded : bool;
      (** Always [false] for servable entries: degraded results are
          refused at insert and quarantined on load. The field exists so
          the flag is explicit in every [meta.json]. *)
  provenance : provenance option;
      (** [None] for kernels stored as synthesized (including every
          format-1 entry written before the optimizer existed). *)
}

type lookup = Hit of entry | Miss | Quarantined of string

val default_root : unit -> string
(** [$SORTSYNTH_REGISTRY] if set and non-empty, else [".sortsynth-registry"]
    in the working directory. *)

val entry_dir : root:string -> Key.t -> string
(** The directory the key's entry lives in (sharded position first, then
    the flat v1 one); the would-be sharded position when absent. *)

val readdir_calls : unit -> int
(** Directory scans this process has performed inside the store layer,
    ever — the daemon's proof that a warm in-memory lookup touched no
    directory at all ([stats] exports the delta). Monotone; compare two
    readings, never the absolute value. *)

val lookup : ?counters:counters -> root:string -> Key.t -> lookup
(** Verified load. [Hit] entries have been re-certified just now;
    [Quarantined] reports why the stored entry was rejected (the entry has
    already been moved aside, so retrying returns [Miss]). *)

val insert :
  ?counters:counters ->
  ?degraded:bool ->
  ?provenance:provenance ->
  root:string ->
  Key.t ->
  Search.result ->
  (entry, string) result
(** Certify and persist the first program of a search result. Fails
    (without writing) when the result has no program, the program does not
    certify, or [~degraded:true] — the optimal store never accepts a
    result produced by a non-optimality-preserving fallback. Overwrites
    any existing entry for the key. The write path is
    fsync-before-rename; an injected crash ([registry.rename] /
    [registry.fsync] fault sites) returns [Error] and leaves the torn
    temp directory for {!recover} to roll back, exactly like a real
    crash would. *)

type recovery = {
  rolled_back : int;  (** Torn [.tmp-*] staging directories removed. *)
  requarantined : int;
      (** Structurally broken entries (missing or unparsable files,
          hash/key mismatch, a [degraded] flag) moved to quarantine. *)
}

val recover : ?counters:counters -> root:string -> unit -> recovery
(** The open-time crash-recovery scan. Rolls back every torn temp
    directory a crashed insert left in the store, and quarantines entries
    that fail the {e structural} checks (readable, parsable, hash/key
    consistent — {!Analysis.Certify.sorts} still re-certifies on every
    serving load). Idempotent; cheap on a healthy store (one metadata
    parse per entry, no certification). Callers that open a registry for
    serving — the CLI's [--cache] path, [run_batch], the registry
    maintenance commands — run this first. *)

type scan = {
  hashes : string list;  (** All entry hashes, both layouts, sorted. *)
  flat : string list;  (** The subset still in the flat v1 position. *)
  tmp : string list;  (** Torn [.tmp-*] staging dirs (full paths). *)
  shards : int;  (** Shard directories present. *)
  quarantined : int;  (** Directories in the quarantine area. *)
}
(** Everything one walk of the store tree can tell without opening a
    single file: entry names by layout, torn staging directories, and the
    quarantine population. The single source for [registry list]'s
    counts, {!verify_all}, {!gc}, and {!recover} — none of them makes a
    second readdir pass over the same directories, and counting requires
    no [meta.json] reads at all. *)

val scan : root:string -> scan

val list_hashes : root:string -> string list
(** Sorted entry hashes currently in the store (no verification); both
    layouts. [(scan ~root).hashes]. *)

type migration = {
  moved : int;  (** Flat entries renamed into their shard. *)
  already_sharded : int;  (** Entries that were already in v2 position. *)
  conflicts : int;
      (** Flat entries left untouched because a sharded twin appeared
          (an interleaved insert); the sharded copy is newer and wins
          every lookup, the flat one is reported, not deleted. *)
}

val migrate : root:string -> unit -> migration
(** Rename every flat v1 entry into its shard directory. Each move is a
    single same-filesystem rename (atomic — a crash mid-migration leaves
    every entry in exactly one of its two positions, and both positions
    are always readable), followed by directory fsyncs. Idempotent. *)

val load_unverified : root:string -> string -> (entry, string) result
(** Read an entry by hash without certification or quarantine — for
    [registry list] style inspection only; never serve from this. *)

val verify_all :
  ?counters:counters ->
  ?lint:bool ->
  root:string ->
  unit ->
  (string * (entry, string) result) list
(** Re-certify every entry (sorted by hash). Failing entries are
    quarantined, exactly as a serving lookup would. With [~lint:true],
    entries that certify are additionally vetted by the static analyzer
    ({!Analysis.Lint.check_all}): any ERROR-severity finding — a provably
    removable instruction in a kernel that is supposed to be optimal —
    quarantines the entry too, with the findings as the recorded reason. *)

val quarantine_count : root:string -> int

val warmset_path : string -> string
(** [<root>/warmset.json] — where the daemon's drain persists its LRU
    working set. *)

val write_warmset : root:string -> Key.t list -> (int, string) result
(** Atomically persist a warm-set snapshot (keys only, MRU first):
    staged to a temp file, fsynced, renamed into place — the store's own
    crash discipline. The [serve.snapshot_torn] fault site truncates the
    bytes, simulating a crash mid-write. Returns the key count. *)

val read_warmset : root:string -> (Key.t list, string) result
(** Parse the snapshot back, MRU first; [Ok []] when no snapshot exists.
    Any damage — torn JSON, wrong schema, a malformed key — is an
    [Error], and the caller starts cold. The keys carry {e no} trust:
    restoring admits each one through {!lookup}, which re-certifies. *)

type gc_report = {
  kept : int;  (** Entries that certified and remain servable. *)
  purged : int;  (** Quarantine directories removed (or listed, dry run). *)
  reclaimed_bytes : int;
      (** Total on-disk bytes of the removed directories (to-be-removed,
          dry run): every file's size, recursively. *)
  victims : string list;
      (** What was (or would be) removed, root-relative
          (["quarantine/<hash>"]; dry runs also list the
          ["store/<hh>/<hash>"] — or flat ["store/<hash>"] — entries
          that would fail certification and be swept). Sorted within
          each area. *)
}

val gc : ?dry_run:bool -> root:string -> unit -> gc_report
(** [gc ~root ()] re-certifies every entry, quarantining failures, then
    deletes the whole quarantine area and reports what was reclaimed.
    With [~dry_run:true] nothing on disk is touched — not even the
    quarantining that certification failures normally trigger: the
    report lists the failing store entries and current quarantine
    contents that a real run would remove, with their byte total. *)
