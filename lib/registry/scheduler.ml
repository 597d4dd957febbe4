type status =
  | Cached
  | Synthesized
  | Timed_out
  | Exhausted of { live : int; budget : int option }
  | Crashed
  | Failed of string

type attempt = { n : int; failure : string; backoff : float }

type job_result = {
  key : Key.t;
  status : status;
  program : Isa.Program.t option;
  length : int option;
  attempts : int;
  elapsed : float;
  search : Search.result option;
  degraded : bool;
  rung : int;
  attempt_log : attempt list;
  opt : Opt.Pipeline.report option;
}

type batch = { results : job_result list; counters : Store.counters }
type run_outcome = { result : Search.result; degraded : bool; rung : int }

(* ------------------------------------------------------------------ *)
(* Degradation ladder.                                                 *)

let max_rung = 3

(* Rung [r] of the ladder: the option set to retry with after the search
   raised [Resource_exhausted] under rung [r - 1]. Each rung cuts the
   live-state set harder than the last; every rung above 0 abandons the
   optimality (and completeness) guarantees of the base configuration, so
   its results are flagged degraded and never stored. *)
let degrade_opts (base : Search.options) = function
  | 0 -> base
  | 1 ->
      let cut =
        match base.Search.cut with
        | Search.No_cut -> Search.Mult 2.0
        | Search.Mult k when k > 2.0 -> Search.Mult 2.0
        | Search.Mult k -> Search.Mult (Float.max 1.0 (k /. 2.))
        | Search.Add d when d > 2 -> Search.Add 2
        | Search.Add d -> Search.Add (max 1 (d / 2))
      in
      { base with Search.cut }
  | 2 -> { base with Search.cut = Search.Mult 1.0 }
  | _ ->
      {
        base with
        Search.cut = Search.Mult 1.0;
        action_filter = Search.Optimal_guided;
        heuristic = Search.Perm_count;
      }

let run_key ?deadline ?(domains = 2) ?(mode = Search.Find_first) ?budget key =
  let base = Key.options key and cfg = Key.config key in
  let base =
    match budget with
    | None -> base
    | Some b -> { base with Search.state_budget = Some b }
  in
  let run opts =
    match key.Key.engine with
    | Key.Parallel -> Search.run_parallel ~opts ?deadline ~domains ~mode cfg
    | Key.Astar | Key.Level -> Search.run_mode ~opts ?deadline ~mode cfg
  in
  (* The distinct rungs for this base configuration (adjacent rungs can
     coincide, e.g. a [Mult 2.0] base makes rung 1 and rung 2 both
     [Mult 1.0]); running the same options twice cannot help. *)
  let rungs =
    List.init (max_rung + 1) (fun r -> (r, degrade_opts base r))
    |> List.fold_left
         (fun acc (r, o) ->
           match acc with (_, o') :: _ when o = o' -> acc | _ -> (r, o) :: acc)
         []
    |> List.rev
  in
  let rec go = function
    | [] -> assert false
    | [ (rung, opts) ] ->
        (* Last rung: exhaustion here propagates to the caller. *)
        { result = run opts; degraded = rung > 0; rung }
    | (rung, opts) :: rest -> (
        match run opts with
        | r -> { result = r; degraded = rung > 0; rung }
        | exception Search.Resource_exhausted _ -> go rest)
  in
  go rungs

let ( let* ) = Result.bind

let parse_jobs src =
  let* j = Jsonv.parse src in
  let* jobs = Jsonv.to_list j in
  if jobs = [] then Error "jobs file is an empty array"
  else
    List.fold_left
      (fun acc (i, job) ->
        let* keys = acc in
        match Key.of_json job with
        | Ok k -> Ok (k :: keys)
        | Error e -> Error (Printf.sprintf "job %d: %s" i e))
      (Ok [])
      (List.mapi (fun i job -> (i, job)) jobs)
    |> Result.map List.rev

(* ------------------------------------------------------------------ *)
(* One job.                                                            *)

let failure_string = function
  | Timed_out -> "timeout"
  | Exhausted { live; budget } -> (
      match budget with
      | Some b ->
          Printf.sprintf "resource exhausted: %d live states over budget %d"
            live b
      | None ->
          Printf.sprintf
            "resource exhausted: %d live states (no budget configured; \
             alloc-budget fault site fired)"
            live)
  | Crashed -> "worker domain crashed"
  | Failed msg -> msg
  | Cached -> "cached"
  | Synthesized -> "synthesized"

(* Exponential backoff with deterministic jitter: the delay before retry
   [attempt + 1] depends only on (key, attempt), so a batch re-run sleeps
   the same schedule — no wall-clock or PRNG state leaks into results. *)
let backoff_delay ~base ~key ~attempt =
  let expo = base *. (2. ** float_of_int (attempt - 1)) in
  let capped = Float.min 2.0 expo in
  let h = Hashtbl.hash (Key.canonical key, attempt) in
  let jitter = 0.5 +. (float_of_int (h land 0xFFFF) /. 65536.) in
  capped *. jitter

(* One job, run to completion inside a worker domain: up to
   [1 + retries] attempts, each against its own deadline, with backoff
   between attempts. Exceptions must not escape (they would kill the
   domain), so everything funnels into a [status]; each failed attempt
   is recorded in the [attempt_log]. A search that completed without a
   certified kernel is kept, so its statistics still reach the caller. *)
let run_one ?(optimize = false) ?domains ?mode ~timeout ~retries ~backoff
    ~budget key =
  let start = Fault.Clock.now () in
  let cfg = Key.config key in
  let log = ref [] in
  let rec attempt k =
    let deadline = Option.map (fun t -> Fault.Clock.now () +. t) timeout in
    let outcome =
      match
        if Fault.fire Fault.Scheduler_job_exception then
          raise (Fault.Injected Fault.Scheduler_job_exception);
        run_key ?deadline ?domains ?mode ?budget key
      with
      | o -> (
          match o.result.Search.programs with
          | p :: _ -> (
              match Analysis.Certify.sorts cfg p with
              | Ok () ->
                  (* Post-synthesis polish: every rewrite the pipeline
                     applies is certified bit-identical, and a refused
                     pass leaves the kernel alone — so this can only
                     reorder/shrink, never invalidate, the certified
                     program above. *)
                  let opt =
                    if optimize then Some (Opt.Pipeline.run cfg p) else None
                  in
                  let p =
                    match opt with Some rep -> rep.Opt.Pipeline.optimized | None -> p
                  in
                  `Done (p, o, opt)
              | Error msg ->
                  `Retry (Failed ("certification failed: " ^ msg), Some o))
          | [] -> `Retry (Failed "no kernel found within the bound", Some o))
      | exception Search.Timeout -> `Retry (Timed_out, None)
      | exception Search.Resource_exhausted { live; budget } ->
          `Retry (Exhausted { live; budget }, None)
      | exception e -> `Retry (Failed (Printexc.to_string e), None)
    in
    match outcome with
    | `Done (p, o, opt) -> (Synthesized, Some p, Some o, opt, k)
    | `Retry (status, o) when k > retries ->
        log := { n = k; failure = failure_string status; backoff = 0. } :: !log;
        (status, None, o, None, k)
    | `Retry (status, _) ->
        let d = backoff_delay ~base:backoff ~key ~attempt:k in
        log := { n = k; failure = failure_string status; backoff = d } :: !log;
        Fault.Clock.sleep_for d;
        attempt (k + 1)
  in
  let status, program, outcome, opt, attempts = attempt 1 in
  {
    key;
    status;
    program;
    length = Option.map Isa.Program.length program;
    attempts;
    elapsed = Fault.Clock.now () -. start;
    search = Option.map (fun o -> o.result) outcome;
    degraded = (match outcome with Some o -> o.degraded | None -> false);
    rung = (match outcome with Some o -> o.rung | None -> 0);
    attempt_log = List.rev !log;
    opt;
  }

let opt_passes r =
  match r.opt with
  | None -> []
  | Some rep ->
      List.map (fun (d : Opt.Pipeline.delta) -> d.Opt.Pipeline.pass) rep.Opt.Pipeline.deltas

(* The store-through step every caller shares. When the optimizer
   rewrote the kernel, store the rewrite and record where it came from;
   the search's raw program is recoverable via the digest. [insert]
   itself refuses degraded results, so nothing the ladder produced past
   rung 0 can reach the optimal store. *)
let persist ?counters ~root r =
  match (r.status, r.program, r.search) with
  | Synthesized, Some p, Some search ->
      let provenance, search =
        match search.Search.programs with
        | orig :: rest when not (Isa.Program.equal p orig) ->
            ( Some
                {
                  Store.optimized_from =
                    Digest.to_hex
                      (Digest.string
                         (Isa.Program.to_string (Key.config r.key) orig));
                  passes = opt_passes r;
                },
              { search with Search.programs = p :: rest } )
        | _ -> (None, search)
      in
      Store.insert ?counters ~degraded:r.degraded ?provenance ~root r.key search
  | _ -> Error "no synthesized kernel to store"

(* ------------------------------------------------------------------ *)
(* The batch.                                                          *)

let crashed_placeholder key =
  {
    key;
    status = Crashed;
    program = None;
    length = None;
    attempts = 1;
    elapsed = 0.;
    search = None;
    degraded = false;
    rung = 0;
    attempt_log = [ { n = 1; failure = "worker domain crashed"; backoff = 0. } ];
    opt = None;
  }

let run_batch ?root ?(workers = 2) ?timeout ?(retries = 1) ?(backoff = 0.05)
    ?budget ?(optimize = false) keys =
  let counters = Store.fresh_counters () in
  (* Crash recovery before the first lookup: roll back torn temp
     directories and re-quarantine structurally broken entries a crashed
     predecessor left behind. *)
  (match root with
  | Some root -> ignore (Store.recover ~counters ~root ())
  | None -> ());
  let keys = Array.of_list keys in
  let n = Array.length keys in
  let results = Array.make n None in
  (* Lookup pass (main domain): serve hits, queue the rest. *)
  let pending = ref [] in
  Array.iteri
    (fun i key ->
      let serve e =
        results.(i) <-
          Some
            {
              key;
              status = Cached;
              program = Some e.Store.program;
              length = Some e.Store.length;
              attempts = 0;
              elapsed = 0.;
              search = None;
              degraded = false;
              rung = 0;
              attempt_log = [];
              opt = None;
            }
      in
      match root with
      | None ->
          counters.Store.misses <- counters.Store.misses + 1;
          pending := i :: !pending
      | Some root -> (
          match Store.lookup ~counters ~root key with
          | Store.Hit e -> serve e
          | Store.Miss | Store.Quarantined _ -> pending := i :: !pending))
    keys;
  let pending = Array.of_list (List.rev !pending) in
  (* Synthesis pass: workers drain the miss queue. Each [results] slot is
     written by exactly one worker, so the array needs no lock. A worker
     that dies — the [scheduler.worker_crash] fault site, or any escaped
     exception — takes down only the job it had claimed: its slot stays
     [None] and becomes a [Crashed] placeholder in the merge, while the
     surviving workers keep draining the queue. *)
  let next = Atomic.make 0 in
  let worker () =
    let rec loop () =
      let j = Atomic.fetch_and_add next 1 in
      if j < Array.length pending then begin
        let i = pending.(j) in
        if Fault.fire Fault.Scheduler_worker_crash then
          raise (Fault.Injected Fault.Scheduler_worker_crash);
        results.(i) <-
          Some (run_one ~optimize ~timeout ~retries ~backoff ~budget keys.(i));
        loop ()
      end
    in
    try loop () with _ -> ()
  in
  let nworkers = max 1 (min workers (Array.length pending)) in
  let handles = List.init (nworkers - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter (fun h -> try Domain.join h with _ -> ()) handles;
  (* Merge pass (main domain, input order): deterministic store updates. *)
  let results =
    List.mapi
      (fun i r ->
        match r with
        | None -> crashed_placeholder keys.(i)
        | Some r ->
            Option.iter (fun root -> ignore (persist ~counters ~root r)) root;
            r)
      (Array.to_list results)
  in
  { results; counters }

(* ------------------------------------------------------------------ *)
(* JSON.                                                               *)

let status_string = function
  | Cached -> "cached"
  | Synthesized -> "synthesized"
  | Timed_out -> "timed_out"
  | Exhausted _ -> "exhausted"
  | Crashed -> "crashed"
  | Failed _ -> "failed"

(* Outcomes the serve-layer circuit breaker counts as poison evidence:
   a key that crashes workers or exhausts its state budget will do so
   again on the next attempt. Timeouts and transient failures do not
   count — they say more about load than about the key. *)
let poison_status = function
  | Crashed | Exhausted _ -> true
  | Cached | Synthesized | Timed_out | Failed _ -> false

let batch_json batch =
  let job r =
    let attempt a =
      Jsonv.Obj
        [
          ("n", Jsonv.Int a.n);
          ("failure", Jsonv.Str a.failure);
          ("backoff_s", Jsonv.Float a.backoff);
        ]
    in
    Jsonv.Obj
      ([
         ("key", Jsonv.Str (Key.canonical r.key));
         ("hash", Jsonv.Str (Key.hash r.key));
         ("status", Jsonv.Str (status_string r.status));
         ( "length",
           match r.length with Some l -> Jsonv.Int l | None -> Jsonv.Null );
         ("attempts", Jsonv.Int r.attempts);
         ("elapsed_s", Jsonv.Float r.elapsed);
         ( "expanded",
           match r.search with
           | Some s -> Jsonv.Int s.Search.stats.Search.expanded
           | None -> Jsonv.Null );
         ("degraded", Jsonv.Bool r.degraded);
         ("rung", Jsonv.Int r.rung);
         ("attempt_log", Jsonv.Arr (List.map attempt r.attempt_log));
       ]
      @ (match opt_passes r with
        | [] -> []
        | passes ->
            [
              ( "opt_passes",
                Jsonv.Arr (List.map (fun s -> Jsonv.Str s) passes) );
            ])
      @
      match r.status with
      | (Failed _ | Exhausted _ | Crashed) as s ->
          [ ("error", Jsonv.Str (failure_string s)) ]
      | Cached | Synthesized | Timed_out -> [])
  in
  Jsonv.to_string
    (Jsonv.Obj
       [
         ("jobs", Jsonv.Arr (List.map job batch.results));
         ("registry", Store.counters_json batch.counters);
       ])
