type counters = {
  mutable hits : int;
  mutable misses : int;
  mutable quarantined : int;
  mutable inserted : int;
  mutable lint_errors : int;
  mutable recovered : int;
}

let fresh_counters () =
  {
    hits = 0;
    misses = 0;
    quarantined = 0;
    inserted = 0;
    lint_errors = 0;
    recovered = 0;
  }

let counters_json c =
  Jsonv.Obj
    [
      ("hits", Jsonv.Int c.hits);
      ("misses", Jsonv.Int c.misses);
      ("quarantined", Jsonv.Int c.quarantined);
      ("inserted", Jsonv.Int c.inserted);
      ("lint_errors", Jsonv.Int c.lint_errors);
      ("recovered", Jsonv.Int c.recovered);
    ]

type provenance = { optimized_from : string; passes : string list }

type entry = {
  key : Key.t;
  program : Isa.Program.t;
  length : int;
  solution_count : int;
  expanded : int;
  elapsed : float;
  predicted_cost : float;
  degraded : bool;
  provenance : provenance option;
}

type lookup = Hit of entry | Miss | Quarantined of string

let format_version = 1

let default_root () =
  match Sys.getenv_opt "SORTSYNTH_REGISTRY" with
  | Some dir when dir <> "" -> dir
  | _ -> ".sortsynth-registry"

let ( / ) = Filename.concat
let store_dir root = root / "store"
let quarantine_dir root = root / "quarantine"

(* Every directory scan in this module goes through this wrapper so the
   daemon can prove a warm lookup touched no directory at all: the counter
   is the "zero Sys.readdir calls" evidence exported by `synth serve`
   stats. *)
let readdir_counter = Atomic.make 0
let readdir dir = Atomic.incr readdir_counter; Sys.readdir dir
let readdir_calls () = Atomic.get readdir_counter

(* ------------------------------------------------------------------ *)
(* Sharded layout.

   v2 fans the MD5 keyspace across 256 two-hex-digit prefix directories
   (store/ab/<hash>/...), so maintenance scans touch 1/256th of the
   entries per readdir instead of one directory with every entry in it.
   The flat v1 layout (store/<hash>/...) stays readable: [locate] checks
   the shard first, then the flat position, and [migrate] renames flat
   entries into their shards. New inserts always land sharded. *)

let is_hex_string s =
  String.for_all
    (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
    s

let is_shard_name name = String.length name = 2 && is_hex_string name
let shard_of_hash hash = String.sub hash 0 2
let sharded_path ~root hash = store_dir root / shard_of_hash hash / hash
let flat_path ~root hash = store_dir root / hash

(* The directory the entry actually lives in: shard first (v2), then the
   flat v1 position. Two stats, no readdir. *)
let locate ~root hash =
  let sharded = sharded_path ~root hash in
  if Sys.file_exists sharded then Some sharded
  else
    let flat = flat_path ~root hash in
    if Sys.file_exists flat then Some flat else None

let entry_dir ~root key =
  let hash = Key.hash key in
  match locate ~root hash with
  | Some dir -> dir
  | None -> sharded_path ~root hash

let mkdir_p dir =
  let rec go dir =
    if not (Sys.file_exists dir) then begin
      go (Filename.dirname dir);
      try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

(* A torn page: the first half of the content, as a crash mid-write (or a
   partial flush) would leave it. Used by the write-corruption fault sites;
   the store must catch the damage on load, whatever shape it takes. *)
let torn contents = String.sub contents 0 (String.length contents lsr 1)

(* fsync a file or directory; directories matter because the rename is only
   durable once the parent directory's metadata is on disk. Filesystems
   that refuse to fsync a directory fd just skip the barrier. *)
let fsync_path path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (path / f)) (readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* ------------------------------------------------------------------ *)
(* One-pass directory scan.

   [list]/[verify]/[gc]/[recover] used to make separate readdir passes
   over the same tree (entries, then quarantine, then temp dirs). [scan]
   walks the store root exactly once — descending into shard directories,
   classifying flat entries and torn [.tmp-*] staging dirs on the way —
   plus one readdir of the quarantine area, and everything downstream
   reuses the result. *)

type scan = {
  hashes : string list;  (** All entry hashes, both layouts, sorted. *)
  flat : string list;  (** The subset still in the flat v1 position. *)
  tmp : string list;  (** Torn [.tmp-*] staging dirs (full paths). *)
  shards : int;  (** Shard directories present. *)
  quarantined : int;  (** Directories in the quarantine area. *)
}

let scan ~root =
  let dir = store_dir root in
  let hashes = ref [] and flat = ref [] and tmp = ref [] and shards = ref 0 in
  if Sys.file_exists dir then
    Array.iter
      (fun name ->
        if String.starts_with ~prefix:".tmp-" name then tmp := (dir / name) :: !tmp
        else if is_shard_name name then begin
          incr shards;
          Array.iter
            (fun sub ->
              if String.starts_with ~prefix:".tmp-" sub then
                tmp := (dir / name / sub) :: !tmp
              else if not (String.starts_with ~prefix:"." sub) then
                hashes := sub :: !hashes)
            (readdir (dir / name))
        end
        else if not (String.starts_with ~prefix:"." name) then begin
          hashes := name :: !hashes;
          flat := name :: !flat
        end)
      (readdir dir);
  let q = quarantine_dir root in
  let quarantined = if Sys.file_exists q then Array.length (readdir q) else 0 in
  {
    hashes = List.sort compare !hashes;
    flat = List.sort compare !flat;
    tmp = List.sort compare !tmp;
    shards = !shards;
    quarantined;
  }

(* ------------------------------------------------------------------ *)
(* Metadata records.                                                   *)

let meta_json key (e : entry) =
  Jsonv.Obj
    ([
       ("format", Jsonv.Int format_version);
       ("canonical", Jsonv.Str (Key.canonical key));
       ("key", Key.to_json key);
       ("length", Jsonv.Int e.length);
       ("solution_count", Jsonv.Int e.solution_count);
       ("expanded", Jsonv.Int e.expanded);
       ("elapsed_s", Jsonv.Float e.elapsed);
       ("predicted_cost", Jsonv.Float e.predicted_cost);
       ("degraded", Jsonv.Bool e.degraded);
     ]
    @
    (* Optimizer provenance, present only on entries the pipeline
       rewrote: the digest of the pre-optimization kernel text and the
       certified passes that were applied, in order. *)
    match e.provenance with
    | None -> []
    | Some p ->
        [
          ("optimized_from", Jsonv.Str p.optimized_from);
          ("opt_passes", Jsonv.Arr (List.map (fun s -> Jsonv.Str s) p.passes));
        ])

let ( let* ) = Result.bind

let parse_meta src =
  let* j = Jsonv.parse src in
  let req name conv =
    match Jsonv.member name j with
    | Some v -> conv v
    | None -> Error (Printf.sprintf "meta.json is missing %S" name)
  in
  let* format = req "format" Jsonv.to_int in
  if format <> format_version then
    Error (Printf.sprintf "unsupported format version %d" format)
  else
    let* canonical = req "canonical" Jsonv.to_str in
    let* key =
      match Jsonv.member "key" j with
      | Some v -> Key.of_json v
      | None -> Error "meta.json is missing \"key\""
    in
    if Key.canonical key <> canonical then
      Error "canonical string does not match key fields"
    else
      let* length = req "length" Jsonv.to_int in
      let* solution_count = req "solution_count" Jsonv.to_int in
      let* expanded = req "expanded" Jsonv.to_int in
      let* elapsed = req "elapsed_s" Jsonv.to_float in
      let* predicted_cost = req "predicted_cost" Jsonv.to_float in
      (* Absent in format-1 entries written before the flag existed. *)
      let* degraded =
        match Jsonv.member "degraded" j with
        | None -> Ok false
        | Some (Jsonv.Bool b) -> Ok b
        | Some _ -> Error "\"degraded\" is not a boolean"
      in
      if degraded then
        Error "entry is flagged degraded (non-optimal); refusing to serve"
      else
        (* Optimizer provenance: optional, format-1 compatible. *)
        let* provenance =
          match Jsonv.member "optimized_from" j with
          | None -> Ok None
          | Some v ->
              let* optimized_from = Jsonv.to_str v in
              let* passes =
                match Jsonv.member "opt_passes" j with
                | None -> Ok []
                | Some a ->
                    let* items = Jsonv.to_list a in
                    List.fold_left
                      (fun acc item ->
                        let* acc = acc in
                        let* s = Jsonv.to_str item in
                        Ok (s :: acc))
                      (Ok []) items
                    |> Result.map List.rev
              in
              Ok (Some { optimized_from; passes })
        in
        Ok
          (key, length, solution_count, expanded, elapsed, predicted_cost,
           provenance)

(* ------------------------------------------------------------------ *)
(* Quarantine.                                                         *)

let quarantine ~root ~hash ~reason =
  let src =
    match locate ~root hash with
    | Some dir -> dir
    | None -> flat_path ~root hash
  in
  let qdir = quarantine_dir root in
  mkdir_p qdir;
  let rec dest k =
    let d = qdir / (if k = 0 then hash else Printf.sprintf "%s.%d" hash k) in
    if Sys.file_exists d then dest (k + 1) else d
  in
  let dst = dest 0 in
  Sys.rename src dst;
  write_file (dst / "reason.txt") (reason ^ "\n");
  fsync_path (dst / "reason.txt");
  (* The rename is the publish: until both directories' metadata are on
     disk a crash can leave the entry back in the store with a reason
     file already in quarantine, or visible in neither. *)
  fsync_path qdir;
  fsync_path (Filename.dirname src)

let quarantine_count ~root =
  let q = quarantine_dir root in
  if Sys.file_exists q then Array.length (readdir q) else 0

(* ------------------------------------------------------------------ *)
(* Load / lookup.                                                      *)

(* Validate the entry at an explicit directory — recovery must check the
   copy it found, not whatever [locate] would prefer. *)
let load_at ~dir hash =
  let* meta_src =
    try Ok (read_file (dir / "meta.json"))
    with Sys_error m -> Error (Printf.sprintf "unreadable meta.json: %s" m)
  in
  let* key, length, solution_count, expanded, elapsed, predicted_cost, provenance
      =
    parse_meta meta_src
  in
  if Key.hash key <> hash then
    Error "stored key does not hash to its directory name"
  else
    let* kernel_src =
      try Ok (read_file (dir / "kernel.txt"))
      with Sys_error m -> Error (Printf.sprintf "unreadable kernel.txt: %s" m)
    in
    let cfg = Key.config key in
    let* program = Isa.Program.of_string cfg kernel_src in
    if Isa.Program.length program <> length then
      Error
        (Printf.sprintf "kernel has %d instructions, meta.json says %d"
           (Isa.Program.length program) length)
    else
      Ok
        {
          key;
          program;
          length;
          solution_count;
          expanded;
          elapsed;
          predicted_cost;
          degraded = false;
          provenance;
        }

let load ~root hash =
  match locate ~root hash with
  | Some dir -> load_at ~dir hash
  | None -> Error "no such entry"

let load_unverified ~root hash = load ~root hash

let certified ~root hash =
  let* e = load ~root hash in
  let* () = Analysis.Certify.sorts (Key.config e.key) e.program in
  Ok e

let lookup ?counters ~root key =
  let bump f = Option.iter f counters in
  let hash = Key.hash key in
  if locate ~root hash = None then begin
    bump (fun c -> c.misses <- c.misses + 1);
    Miss
  end
  else
    match certified ~root hash with
    | Ok e when Key.equal e.key key ->
        bump (fun c -> c.hits <- c.hits + 1);
        Hit e
    | Ok e ->
        (* MD5 collision or a hand-edited entry: never serve it. *)
        let reason =
          Printf.sprintf "entry key %S does not match request %S"
            (Key.canonical e.key) (Key.canonical key)
        in
        quarantine ~root ~hash ~reason;
        bump (fun (c : counters) -> c.quarantined <- c.quarantined + 1);
        Quarantined reason
    | Error reason ->
        quarantine ~root ~hash ~reason;
        bump (fun (c : counters) -> c.quarantined <- c.quarantined + 1);
        Quarantined reason

(* ------------------------------------------------------------------ *)
(* Insert.                                                             *)

let insert ?counters ?(degraded = false) ?provenance ~root key
    (r : Search.result) =
  if degraded then
    Error
      "refusing to store a degraded (non-optimality-preserving) result in \
       the optimal registry"
  else
    match r.Search.programs with
    | [] -> Error "search result has no program to store"
    | program :: _ -> (
        let cfg = Key.config key in
        let* () = Analysis.Certify.sorts cfg program in
        let entry =
          {
            key;
            program;
            length = Isa.Program.length program;
            solution_count = r.Search.solution_count;
            expanded = r.Search.stats.Search.expanded;
            elapsed = r.Search.stats.Search.elapsed;
            predicted_cost = Perf.Cost.predicted_cost cfg program;
            degraded = false;
            provenance;
          }
        in
        let hash = Key.hash key in
        let shard = store_dir root / shard_of_hash hash in
        mkdir_p shard;
        let tmp = shard / Printf.sprintf ".tmp-%s-%d" hash (Unix.getpid ()) in
        let final = shard / hash in
        let maybe_torn site contents =
          if Fault.fire site then torn contents else contents
        in
        let crash_if site =
          if Fault.fire site then raise (Fault.Injected site)
        in
        match
          if Sys.file_exists tmp then remove_tree tmp;
          mkdir_p tmp;
          write_file (tmp / "kernel.txt")
            (maybe_torn Fault.Registry_write_kernel
               (Isa.Program.to_string cfg program ^ "\n"));
          write_file (tmp / "meta.json")
            (maybe_torn Fault.Registry_write_meta
               (Jsonv.to_string (meta_json key entry) ^ "\n"));
          (* Durability barrier: both files and the staging directory must
             be on disk before the rename publishes them, or a crash could
             expose an entry whose name exists but whose bytes do not. *)
          crash_if Fault.Registry_fsync;
          fsync_path (tmp / "kernel.txt");
          fsync_path (tmp / "meta.json");
          fsync_path tmp;
          crash_if Fault.Registry_rename;
          if Sys.file_exists final then remove_tree final;
          (* A flat v1 twin would shadow-fight the sharded copy in
             [locate]; publishing supersedes it. *)
          let flat = flat_path ~root hash in
          if Sys.file_exists flat then remove_tree flat;
          Sys.rename tmp final;
          fsync_path shard
        with
        | () ->
            Option.iter (fun c -> c.inserted <- c.inserted + 1) counters;
            Ok entry
        | exception Fault.Injected site ->
            (* A simulated crash: leave the torn staging directory exactly
               as a killed process would, for [recover] to roll back. *)
            Error
              (Printf.sprintf
                 "injected fault at %s: crashed before publishing the entry"
                 (Fault.site_name site))
        | exception (Sys_error m | Unix.Unix_error (_, m, _)) ->
            if Sys.file_exists tmp then remove_tree tmp;
            Error (Printf.sprintf "cannot write entry: %s" m))

(* ------------------------------------------------------------------ *)
(* Crash recovery.                                                     *)

type recovery = { rolled_back : int; requarantined : int }

let recover ?counters ~root () =
  let s = scan ~root in
  let rolled_back = ref 0 and requarantined = ref 0 in
  (* Staging directories a crashed insert never renamed into place: they
     were never visible to lookups, so dropping them loses nothing. *)
  List.iter
    (fun tmp ->
      remove_tree tmp;
      incr rolled_back)
    s.tmp;
  List.iter
    (fun hash ->
      (* Validate the copy where it actually sits; a flat twin shadowed
         by a sharded one is stale and swept aside like any broken dir. *)
      let dir =
        match locate ~root hash with
        | Some dir -> dir
        | None -> flat_path ~root hash
      in
      match load_at ~dir hash with
      | Ok _ -> ()
      | Error reason ->
          quarantine ~root ~hash ~reason:("recovery: " ^ reason);
          incr requarantined)
    s.hashes;
  Option.iter
    (fun (c : counters) ->
      c.recovered <- c.recovered + !rolled_back;
      c.quarantined <- c.quarantined + !requarantined)
    counters;
  { rolled_back = !rolled_back; requarantined = !requarantined }

(* ------------------------------------------------------------------ *)
(* Migration: flat v1 -> sharded v2.                                   *)

type migration = { moved : int; already_sharded : int; conflicts : int }

let migrate ~root () =
  let s = scan ~root in
  let moved = ref 0 and conflicts = ref 0 in
  let touched = Hashtbl.create 16 in
  List.iter
    (fun hash ->
      let src = flat_path ~root hash in
      let dst = sharded_path ~root hash in
      if Sys.file_exists dst then
        (* A sharded twin already exists (an interleaved insert overwrote
           the key since the scan). The sharded copy is newer; leave the
           flat one for the caller to inspect rather than deleting data. *)
        incr conflicts
      else begin
        mkdir_p (Filename.dirname dst);
        Sys.rename src dst;
        Hashtbl.replace touched (Filename.dirname dst) ();
        incr moved
      end)
    s.flat;
  (* One rename per entry is atomic; the fsyncs make the batch durable. *)
  Hashtbl.iter (fun shard () -> fsync_path shard) touched;
  if !moved > 0 then fsync_path (store_dir root);
  {
    moved = !moved;
    already_sharded = List.length s.hashes - List.length s.flat;
    conflicts = !conflicts;
  }

(* ------------------------------------------------------------------ *)
(* Warm-set snapshot.

   A draining daemon persists its LRU working set — keys only, never
   kernels — so a restart can rebuild the cache before traffic returns.
   Keys carry no trust: restore re-admits each one through [lookup],
   which re-certifies via the usual admission path, so a tampered
   snapshot can at worst name keys that fail certification and get
   quarantined. The write is crash-safe in the store's own idiom:
   fsync-before-rename, with serve.snapshot_torn simulating a crash
   mid-write (the published file is torn and restore falls back to a
   cold start). *)

let warmset_schema = "sortsynth-serve-warmset/v1"
let warmset_path root = root / "warmset.json"

let write_warmset ~root keys =
  mkdir_p root;
  let body =
    Jsonv.to_string
      (Jsonv.Obj
         [
           ("schema", Jsonv.Str warmset_schema);
           ("keys", Jsonv.Arr (List.map Key.to_json keys));
         ])
    ^ "\n"
  in
  let body = if Fault.fire Fault.Serve_snapshot_torn then torn body else body in
  let tmp = root / ".warmset.tmp" in
  match
    write_file tmp body;
    fsync_path tmp;
    Sys.rename tmp (warmset_path root);
    fsync_path root
  with
  | () -> Ok (List.length keys)
  | exception (Sys_error m | Unix.Unix_error (_, m, _)) ->
      (try if Sys.file_exists tmp then Sys.remove tmp with Sys_error _ -> ());
      Error (Printf.sprintf "cannot write warm-set snapshot: %s" m)

let read_warmset ~root =
  let path = warmset_path root in
  if not (Sys.file_exists path) then Ok []
  else
    let* src = (try Ok (read_file path) with Sys_error m -> Error m) in
    let* j = Jsonv.parse src in
    let* schema =
      match Jsonv.member "schema" j with
      | Some v -> Jsonv.to_str v
      | None -> Error "warm-set snapshot: missing \"schema\""
    in
    if schema <> warmset_schema then
      Error (Printf.sprintf "warm-set snapshot: unsupported schema %S" schema)
    else
      match Jsonv.member "keys" j with
      | Some (Jsonv.Arr items) ->
          List.fold_left
            (fun acc kj ->
              let* acc = acc in
              let* key = Key.of_json kj in
              Ok (key :: acc))
            (Ok []) items
          |> Result.map List.rev
      | _ -> Error "warm-set snapshot: missing \"keys\" array"

(* ------------------------------------------------------------------ *)
(* Maintenance.                                                        *)

let list_hashes ~root = (scan ~root).hashes

(* The static analyzer's verdict on one entry: [Ok] when lint-clean,
   [Error reason] when any ERROR-severity finding fires. A stored kernel is
   always optimal-by-construction, so an ERROR finding (a provably removable
   instruction, or worse) means the entry was tampered with. *)
let lint_entry (e : entry) =
  let cfg = Key.config e.key in
  match Analysis.Lint.errors (Analysis.Lint.check_all cfg e.program) with
  | [] -> Ok ()
  | errs ->
      Error
        (Printf.sprintf "static analyzer: %s: %s"
           (Analysis.Lint.summary errs)
           (String.concat "; "
              (List.map
                 (fun f ->
                   Printf.sprintf "[%s%s] %s"
                     (Analysis.Lint.rule_id f.Analysis.Lint.rule)
                     (match f.Analysis.Lint.index with
                     | Some i -> Printf.sprintf " @%d" i
                     | None -> "")
                     f.Analysis.Lint.message)
                 errs)))

let verify_all ?counters ?(lint = false) ~root () =
  List.map
    (fun hash ->
      let vetted =
        match certified ~root hash with
        | Error _ as e -> e
        | Ok e when not lint -> Ok e
        | Ok e -> (
            match lint_entry e with
            | Ok () -> Ok e
            | Error reason ->
                Option.iter
                  (fun c -> c.lint_errors <- c.lint_errors + 1)
                  counters;
                Error reason)
      in
      match vetted with
      | Ok e -> (hash, Ok e)
      | Error reason ->
          quarantine ~root ~hash ~reason;
          Option.iter
            (fun (c : counters) -> c.quarantined <- c.quarantined + 1)
            counters;
          (hash, Error reason))
    (list_hashes ~root)

type gc_report = {
  kept : int;
  purged : int;
  reclaimed_bytes : int;
  victims : string list;
}

let rec tree_size path =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc f -> acc + tree_size (path / f))
      0 (readdir path)
  else (Unix.stat path).Unix.st_size

(* Root-relative display path of a store entry, whichever layout it is
   in: ["store/ab/<hash>"] or the v1 ["store/<hash>"]. *)
let relative_entry ~root hash =
  match locate ~root hash with
  | Some dir when dir = sharded_path ~root hash ->
      "store" / shard_of_hash hash / hash
  | _ -> "store" / hash

let gc ?(dry_run = false) ~root () =
  let q = quarantine_dir root in
  if dry_run then begin
    (* Read-only preview: nothing is quarantined, moved, or deleted. An
       entry that fails certification would be quarantined and then
       purged by a real run, so it counts as a victim alongside whatever
       already sits in quarantine. *)
    let s = scan ~root in
    let entries =
      List.map (fun hash -> (hash, Result.is_ok (certified ~root hash)))
        s.hashes
    in
    let kept = List.length (List.filter snd entries) in
    let failing =
      List.filter_map (fun (h, ok) -> if ok then None else Some h) entries
    in
    let quarantined =
      if Sys.file_exists q then List.sort compare (Array.to_list (readdir q))
      else []
    in
    let victims =
      List.map (fun h -> relative_entry ~root h) failing
      @ List.map (fun h -> "quarantine/" ^ h) quarantined
    in
    let reclaimed_bytes =
      List.fold_left
        (fun acc h ->
          acc
          + tree_size
              (match locate ~root h with
              | Some dir -> dir
              | None -> flat_path ~root h))
        0 failing
      + List.fold_left
          (fun acc h -> acc + tree_size (q / h))
          0 quarantined
    in
    { kept; purged = List.length victims; reclaimed_bytes; victims }
  end
  else begin
    let checked = verify_all ~root () in
    let kept =
      List.length (List.filter (fun (_, r) -> Result.is_ok r) checked)
    in
    if Sys.file_exists q then begin
      let victims =
        List.sort compare (Array.to_list (readdir q))
        |> List.map (fun h -> "quarantine/" ^ h)
      in
      let reclaimed_bytes = tree_size q in
      remove_tree q;
      { kept; purged = List.length victims; reclaimed_bytes; victims }
    end
    else { kept; purged = 0; reclaimed_bytes = 0; victims = [] }
  end
