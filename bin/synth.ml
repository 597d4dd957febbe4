(* Command-line synthesizer: the repository's front door.

   Examples:
     synth -n 3                       fastest configuration, print the kernel
     synth -n 3 --x86                 render as x86-64 assembly
     synth -n 4 --engine level        certified-minimal search
     synth -n 4 --engine parallel -j 4   level search over 4 worker domains
     synth -n 3 --all --cut 2         enumerate all optimal kernels
     synth -n 3 --minmax              min/max (vector) kernel
     synth -n 3 --prove-none 10       show no shorter kernel exists
     synth -n 3 --pddl                emit the PDDL planning encoding
     synth -n 3 --cache               serve/populate the kernel registry
     synth -n 3 --stats-json -        dump the search-stats JSON snapshot
     synth batch jobs.json -j 4      run a job list through the registry
     synth serve --socket S.sock      long-lived daemon: LRU + coalescing
     synth client --server S.sock -n 3   one request against the daemon
     synth batch jobs.json --server S.sock   batch through the daemon
     synth registry list|verify|gc    inspect / re-certify / sweep the store
     synth registry migrate           shard a flat v1 store in place
     synth lint kernel.txt            static lints; exit 1 on ERROR findings
     synth analyze kernel.txt         full report: dataflow, abstract
                                      certification, proof-carrying DCE
     synth optimize kernel.txt        proof-carrying optimizer pipeline:
                                      every rewrite certified on all n!
                                      permutations, refused otherwise
     synth equiv a.txt b.txt          exact equivalence on all n! inputs;
                                      exit 1 + counterexample on mismatch

   Exit codes:
     0  success
     1  lint / verification / synthesis failure, including no kernel
        within --max-len (or mixed batch failures; for equiv: the
        kernels differ)
     2  the search deadline passed (every retry timed out)
     3  the live-state budget was exhausted even at the final
        degradation rung
     4  registry corruption: a verify sweep found entries that had to be
        quarantined
     5  synthesis server unreachable, or a protocol error on its socket
        (client / batch --server modes)
     6  the server shed the request: overloaded (connection budget or
        request queue full, or draining) or circuit_open (the key's
        breaker is tripped); retry after the server's retry_after hint *)

open Cmdliner

let exit_timeout = 2
let exit_exhausted = 3
let exit_corrupt = 4
let exit_unreachable = 5
let exit_overloaded = 6

let exits =
  Cmd.Exit.info ~doc:"on lint, verification, or synthesis failure." 1
  :: Cmd.Exit.info ~doc:"when the search deadline passed (every retry timed out)."
       exit_timeout
  :: Cmd.Exit.info
       ~doc:
         "when the live-state budget was exhausted even at the final \
          degradation-ladder rung."
       exit_exhausted
  :: Cmd.Exit.info
       ~doc:"on registry corruption (a verify sweep quarantined entries)."
       exit_corrupt
  :: Cmd.Exit.info
       ~doc:
         "when the synthesis server is unreachable or its response was cut \
          off or unparsable (client and batch --server modes)."
       exit_unreachable
  :: Cmd.Exit.info
       ~doc:
         "when the server shed the request — overloaded (connection or \
          queue budget, or draining) or circuit_open (the key's breaker \
          is tripped). Back off for the server's retry_after hint and \
          retry."
       exit_overloaded
  :: Cmd.Exit.defaults

(* The exit code for a non-empty list of failed jobs, named by status
   ({!Registry.Scheduler.status_string} names plus the daemon's
   [overloaded] and [circuit_open]). A homogeneous failure class keeps its
   dedicated code, so scripts can tell "give it more time" (2) from "give
   it more memory" (3) from "back off" (6); mixed or other failures
   collapse to 1. *)
let failure_exit statuses =
  let class_of = function
    | "timed_out" -> exit_timeout
    | "exhausted" -> exit_exhausted
    | "overloaded" | "circuit_open" -> exit_overloaded
    | _ -> 1
  in
  match List.sort_uniq compare (List.map class_of statuses) with
  | [ code ] -> code
  | _ -> 1

(* [--fault-plan] accepts the same forms as $SORTSYNTH_FAULT_PLAN: an
   inline spec when it contains '=' (specs always do — at least [seed=] or
   a [site=trigger] clause), a plan-file path otherwise. *)
let setup_faults spec =
  let r =
    match spec with
    | None -> Fault.setup ()
    | Some s ->
        Result.map Fault.install
          (if String.contains s '=' then Fault.plan_of_string s
           else Fault.load_file s)
  in
  match r with
  | Ok () -> ()
  | Error msg ->
      Printf.eprintf "synth: fault plan: %s\n" msg;
      exit 1

let write_json path json =
  let json = json ^ "\n" in
  if path = "-" then print_string json
  else
    match open_out path with
    | oc ->
        output_string oc json;
        close_out oc
    | exception Sys_error msg ->
        Printf.eprintf "synth: cannot write stats JSON: %s\n" msg;
        exit 1

let resolve_root = function
  | Some dir -> dir
  | None -> Registry.Store.default_root ()

let zero_stats =
  {
    Search.expanded = 0;
    generated = 0;
    deduped = 0;
    pruned_cut = 0;
    pruned_viability = 0;
    pruned_bound = 0;
    max_open = 0;
    elapsed = 0.;
    timeline = [];
    levels = [];
  }

(* ------------------------------------------------------------------ *)
(* Default command: synthesize one kernel.                             *)

let run n minmax engine jobs all cut heuristic max_len x86 prove_none pddl
    scratch cache cache_dir stats_json fault_plan timeout budget optimize =
  setup_faults fault_plan;
  let cfg = Isa.Config.make ~n ~m:scratch in
  if pddl then begin
    print_string (Planning.Pddl.domain cfg);
    print_newline ();
    print_string (Planning.Pddl.problem cfg);
    `Ok ()
  end
  else if minmax then begin
    let opts = { Minmax.default with Minmax.all_solutions = all; max_len } in
    let r = Minmax.synthesize ~opts n in
    match r.Minmax.programs with
    | [] ->
        Printf.printf "no min/max kernel found\n";
        `Ok ()
    | p :: _ ->
        Printf.printf "# %d instructions, %d solutions, %.3f s, %d states\n"
          (Array.length p) r.Minmax.solution_count r.Minmax.elapsed
          r.Minmax.expanded;
        print_endline
          (if x86 then Minmax.Vexec.to_x86 cfg p else Minmax.Vexec.to_string cfg p);
        `Ok ()
  end
  else begin
    let key =
      Registry.Key.make ~m:scratch ~engine ~heuristic
        ~cut:(Registry.Key.cut_of_factor cut) ?max_len n
    in
    let mode =
      match prove_none with
      | Some l -> Search.Prove_none l
      | None -> if all then Search.All_optimal else Search.Find_first
    in
    let label =
      Printf.sprintf "synth n=%d engine=%s" n (Registry.Key.engine_to_string engine)
    in
    let root = resolve_root cache_dir in
    let counters = Registry.Store.fresh_counters () in
    (* Only plain find-first requests are cacheable: the store holds one
       kernel per key, not solution enumerations or non-existence proofs. *)
    let cacheable = cache && mode = Search.Find_first in
    (* Every kernel we are about to print gets a static-analysis pass; the
       verdict rides along in the stats snapshot and any ERROR finding —
       impossible for a synthesized-optimal kernel — is shouted. *)
    let analysis_note = ref None in
    let degraded_note = ref None in
    let opt_note = ref None in
    let note_opt (rep : Opt.Pipeline.report) before =
      let p = rep.Opt.Pipeline.optimized in
      opt_note :=
        Some
          (Jsonv.Obj
             [
               ( "passes",
                 Jsonv.Arr
                   (List.map
                      (fun (d : Opt.Pipeline.delta) -> Jsonv.Str d.Opt.Pipeline.pass)
                      rep.Opt.Pipeline.deltas) );
               ("refused", Jsonv.Int (List.length rep.Opt.Pipeline.refusals));
               ("rounds", Jsonv.Int rep.Opt.Pipeline.rounds);
               ("instructions_before", Jsonv.Int (Array.length before));
               ("instructions_after", Jsonv.Int (Array.length p));
               ("cycles_before", Jsonv.Int (Perf.Cost.simulated_cycles cfg before));
               ("cycles_after", Jsonv.Int (Perf.Cost.simulated_cycles cfg p));
             ])
    in
    let note_analysis p =
      let fs = Analysis.Lint.check_all cfg p in
      let errs = List.length (Analysis.Lint.errors fs) in
      let d = Analysis.Dce.run cfg p in
      analysis_note :=
        Some
          (Jsonv.Obj
             [
               ("findings", Jsonv.Int (List.length fs));
               ("errors", Jsonv.Int errs);
               ("eliminated", Jsonv.Int (List.length d.Analysis.Dce.removed));
             ]);
      if errs > 0 then
        Printf.eprintf "synth: lint: %s on the produced kernel\n"
          (Analysis.Lint.summary fs)
    in
    let extra () =
      let note name r = Option.to_list (Option.map (fun j -> (name, j)) !r) in
      (if cache then [ ("registry", Registry.Store.counters_json counters) ]
       else [])
      @ note "analysis" analysis_note
      @ note "degraded" degraded_note
      @ note "opt" opt_note
      @ [
          ( "symcert",
            Jsonv.Obj
              [
                ("symbolic_proofs", Jsonv.Int (Analysis.Certify.symbolic_proofs ()));
                ("exact_fallbacks", Jsonv.Int (Analysis.Certify.exact_fallbacks ()));
                ( "exact_certifications",
                  Jsonv.Int (Analysis.Certify.certifications ()) );
              ] );
        ]
    in
    let dump_stats stats =
      match stats_json with
      | None -> ()
      | Some path ->
          write_json path
            (Jsonv.to_string (Search.Stats.to_json ~label ~extra:(extra ()) stats))
    in
    let hit =
      if cacheable then begin
        (* Crash recovery before the first lookup: a predecessor that died
           mid-insert leaves a torn temp dir or a half-written entry. *)
        let rcv = Registry.Store.recover ~counters ~root () in
        if rcv.Registry.Store.rolled_back > 0 || rcv.Registry.Store.requarantined > 0
        then
          Printf.eprintf
            "synth: registry: recovered: %d torn insert(s) rolled back, %d \
             entries re-quarantined\n"
            rcv.Registry.Store.rolled_back rcv.Registry.Store.requarantined;
        match Registry.Store.lookup ~counters ~root key with
        | Registry.Store.Hit e -> Some e
        | Registry.Store.Quarantined reason ->
            Printf.eprintf "synth: registry: quarantined bad entry: %s\n" reason;
            None
        | Registry.Store.Miss -> None
      end
      else None
    in
    let render p =
      if x86 then Isa.Program.to_x86 cfg p else Isa.Program.to_string cfg p
    in
    match hit with
    | Some e ->
        Printf.printf "# registry hit %s: %d instructions, verified on load\n"
          (Registry.Key.hash key) e.Registry.Store.length;
        print_endline (render e.Registry.Store.program);
        note_analysis e.Registry.Store.program;
        dump_stats zero_stats;
        `Ok ()
    | None ->
        let module S = Registry.Scheduler in
        (* A non-existence proof wants the search, not a polished kernel. *)
        let job =
          S.run_one ~optimize:(optimize && prove_none = None) ~domains:jobs ~mode
            ~timeout ~retries:0 ~backoff:0. ~budget key
        in
        if job.S.search <> None then degraded_note := Some (Jsonv.Bool job.S.degraded);
        if job.S.degraded then
          Printf.eprintf
            "synth: degraded result (ladder rung %d): the kernel is verified \
             correct but not guaranteed shortest; it will not be cached\n"
            job.S.rung;
        let code =
          match (mode, job) with
          | Search.Prove_none l, { S.search = Some r; _ } ->
              Printf.printf
                (match r.Search.optimal_length with
                | None -> format_of_string "no kernel of length <= %d exists (%d states explored)\n"
                | Some _ -> format_of_string "a kernel of length <= %d exists! (%d states)\n")
                l r.Search.stats.Search.expanded;
              0
          | _, { S.status = S.Synthesized; program = Some p; search = Some r; _ } ->
              Option.iter
                (fun (rep : Opt.Pipeline.report) ->
                  note_opt rep (List.hd r.Search.programs);
                  List.iter
                    (fun (d : Opt.Pipeline.delta) ->
                      Printf.printf
                        "# opt %s: %d -> %d instructions, %d -> %d simulated \
                         cycles\n"
                        d.Opt.Pipeline.pass d.Opt.Pipeline.instructions_before
                        d.Opt.Pipeline.instructions_after
                        d.Opt.Pipeline.cycles_before d.Opt.Pipeline.cycles_after)
                    rep.Opt.Pipeline.deltas;
                  List.iter
                    (fun (f : Opt.Pipeline.refusal) ->
                      Printf.eprintf "synth: opt: refused %s: %s\n"
                        f.Opt.Pipeline.pass f.Opt.Pipeline.reason)
                    rep.Opt.Pipeline.refusals)
                job.S.opt;
              note_analysis p;
              Printf.printf "# %d instructions, %d solutions, %.3f s, %d states\n"
                (Array.length p) r.Search.solution_count
                r.Search.stats.Search.elapsed r.Search.stats.Search.expanded;
              print_endline (render p);
              (if cacheable then
                 match S.persist ~counters ~root job with
                 | Ok _ -> Printf.printf "# registry store %s\n" (Registry.Key.hash key)
                 | Error msg ->
                     Printf.eprintf "synth: registry: cannot store kernel: %s\n" msg);
              0
          | _ ->
              Option.iter (Printf.eprintf "synth: %s\n")
                (Serve.Protocol.of_job job).Serve.Protocol.error;
              failure_exit [ S.status_string job.S.status ]
        in
        dump_stats
          (match job.S.search with Some r -> r.Search.stats | None -> zero_stats);
        if code <> 0 then exit code;
        `Ok ()
  end

let n =
  Arg.(value & opt int 3 & info [ "n" ] ~docv:"N" ~doc:"Array length to sort (1-6).")

let minmax = Arg.(value & flag & info [ "minmax" ] ~doc:"Use the min/max vector ISA.")

let engine =
  Arg.(
    value
    & opt (enum Registry.Key.engine_assoc) Registry.Key.Astar
    & info [ "engine" ]
        ~doc:
          "Search engine: astar (fast), level (certified minimal), or \
           parallel (level search over --jobs worker domains).")

let jobs =
  Arg.(
    value & opt int 2
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"Worker domains for --engine parallel and for batch mode.")

let all = Arg.(value & flag & info [ "all" ] ~doc:"Enumerate all optimal kernels.")

let cut =
  Arg.(
    value & opt float 1.0
    & info [ "cut"; "k" ] ~docv:"K"
        ~doc:"Perm-count cut factor (Section 3.5); 0 disables the cut.")

let heuristic =
  Arg.(
    value
    & opt (enum Registry.Key.heuristic_assoc) Search.Perm_count
    & info [ "heuristic" ] ~doc:"A* heuristic: none, perm, assign, or dist.")

let max_len =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-len" ] ~docv:"L" ~doc:"Length bound for the search.")

let x86 = Arg.(value & flag & info [ "x86" ] ~doc:"Print x86-64 assembly.")

let prove_none =
  Arg.(
    value
    & opt (some int) None
    & info [ "prove-none" ] ~docv:"L"
        ~doc:"Exhaustively show that no kernel of length <= L exists.")

let pddl =
  Arg.(value & flag & info [ "pddl" ] ~doc:"Emit the PDDL domain and problem.")

let scratch =
  Arg.(value & opt int 1 & info [ "scratch"; "m" ] ~doc:"Scratch registers (default 1).")

let cache =
  Arg.(
    value & flag
    & info [ "cache" ]
        ~doc:
          "Consult the kernel registry before searching and store the \
           synthesized kernel after. Entries are re-verified on every load.")

let cache_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~env:(Cmd.Env.info "SORTSYNTH_REGISTRY")
        ~doc:
          "Registry root directory (default: \\$SORTSYNTH_REGISTRY or \
           .sortsynth-registry).")

let stats_json =
  Arg.(
    value
    & opt (some string) None
    & info [ "stats-json" ] ~docv:"FILE"
        ~doc:
          "Dump a machine-readable JSON snapshot of the search statistics \
           (counters, timeline, per-level open/pruned breakdown) to $(docv), \
           or to stdout when $(docv) is '-'.")

let fault_plan =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault-plan" ] ~docv:"PLAN"
        ~env:(Cmd.Env.info "SORTSYNTH_FAULT_PLAN")
        ~doc:
          "Deterministic fault-injection plan (testing only): a plan file, \
           or an inline spec like 'seed=42;registry.rename=nth:1'. Makes \
           the named chokepoints — registry writes, renames, fsyncs, \
           scheduler worker crashes, search budgets and deadlines — fail \
           on cue, deterministically in the seed.")

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:
          "Per-attempt search deadline on the monotonic clock; exit code 2 \
           when it passes.")

let state_budget =
  Arg.(
    value
    & opt (some int) None
    & info [ "state-budget" ] ~docv:"STATES"
        ~doc:
          "Cap on live search states. Exceeding it triggers the \
           degradation ladder (progressively aggressive \
           non-optimality-preserving cuts, results flagged degraded and \
           never cached); exhaustion at the final rung exits with code 3.")

let optimize_flag =
  Arg.(
    value & flag
    & info [ "optimize" ]
        ~doc:
          "Run the proof-carrying optimizer over the synthesized kernel \
           before printing/storing it. Every rewrite is certified \
           bit-identical on all n! permutations; refused passes are \
           reported and leave the kernel unchanged.")

let default_term =
  Term.(
    ret
      (const run $ n $ minmax $ engine $ jobs $ all $ cut $ heuristic $ max_len
      $ x86 $ prove_none $ pddl $ scratch $ cache $ cache_dir $ stats_json
      $ fault_plan $ timeout_arg $ state_budget $ optimize_flag))

(* ------------------------------------------------------------------ *)
(* batch: run a JSON job list through the registry + scheduler.        *)

let read_file_res path =
  match open_in_bin path with
  | ic ->
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Ok s
  | exception Sys_error msg -> Error msg

(* One printer for local and [--server] batches: a '#' status line per
   job, then its kernel text. Kernel lines are identical either way; the
   '#' lines carry the daemon's wording for every status. *)
let print_jobs keys served =
  List.iteri
    (fun i (key, (s : Serve.Protocol.served)) ->
      let error = Option.value ~default:"" s.Serve.Protocol.error in
      let retry =
        match s.Serve.Protocol.retry_after with
        | Some r -> Printf.sprintf "; retry in %.1f s" r
        | None -> ""
      in
      let tag, note =
        match s.Serve.Protocol.status with
        | "cached" ->
            ( "cached",
              match s.Serve.Protocol.source with
              | Some "memory" -> " (served from memory)"
              | _ -> "" )
        | "synthesized" when s.Serve.Protocol.degraded ->
            ( Printf.sprintf "synthesized DEGRADED (rung %d)" s.Serve.Protocol.rung,
              Printf.sprintf
                " in %.3f s — correct but not guaranteed shortest; not cached"
                s.Serve.Protocol.elapsed )
        | "synthesized" ->
            ("synthesized", Printf.sprintf " in %.3f s" s.Serve.Protocol.elapsed)
        | "timed_out" ->
            ("TIMED OUT", Printf.sprintf " after %d attempts" s.Serve.Protocol.attempts)
        | "crashed" -> ("CRASHED", ": worker died mid-request; job isolated")
        | "overloaded" ->
            ( "OVERLOADED",
              Printf.sprintf ": %s%s"
                (if error = "" then "request shed" else error)
                retry )
        | "circuit_open" ->
            ( "CIRCUIT OPEN",
              Printf.sprintf ": %s%s"
                (if error = "" then "breaker tripped for this key" else error)
                retry )
        | st -> (String.uppercase_ascii st, if error = "" then "" else ": " ^ error)
      in
      Printf.printf "# job %d [%s] %s: %s%s\n" i
        (String.sub (Registry.Key.hash key) 0 12)
        (Registry.Key.describe key) tag note;
      Option.iter print_endline s.Serve.Protocol.kernel)
    (List.combine keys served)

(* A batch exits 0 when every job produced a kernel, else with the exit
   class of its failures (see [failure_exit]). *)
let batch_exit (served : Serve.Protocol.served list) =
  let failed =
    List.filter_map
      (fun (s : Serve.Protocol.served) ->
        match s.Serve.Protocol.status with
        | "cached" | "synthesized" -> None
        | st -> Some st)
      served
  in
  if failed <> [] then begin
    Printf.eprintf "synth batch: %d of %d jobs did not produce a kernel\n"
      (List.length failed) (List.length served);
    exit (failure_exit failed)
  end;
  `Ok ()

(* The thin-client path of [batch --server]: ship the parsed job list to
   the daemon and print its answers through the same printer as a local
   run. The kernel text is byte-identical — both ends render the same
   certified program — only the timing commentary in the '#' lines
   differs. *)
let run_batch_remote sock keys timeout retries backoff budget optimize
    stats_json =
  (* Propagate an absolute deadline covering every attempt the server may
     make on our behalf, plus a second of queue/transport slack — so a
     request that would blow past our patience is shed in the server's
     queue instead of burning a worker. The batch shares one deadline but
     the server only fans out [workers + queue] jobs at a time, and we
     don't know its width — so budget for the worst case, the whole batch
     running serially. Tail jobs waiting their turn are still wanted;
     the per-attempt timeout, not the batch deadline, bounds each job. *)
  let deadline =
    Option.map
      (fun t ->
        let jobs = float_of_int (max 1 (List.length keys)) in
        Fault.Clock.now () +. (t *. float_of_int (1 + retries) *. jobs) +. 1.0)
      timeout
  in
  let params =
    { Serve.Protocol.timeout; budget; retries; backoff; optimize; deadline }
  in
  match Serve.Client.roundtrip ~socket:sock (Serve.Protocol.Batch (keys, params)) with
  | Error msg ->
      Printf.eprintf "synth batch: %s\n" msg;
      exit exit_unreachable
  | Ok (Serve.Protocol.Refused msg) ->
      `Error (false, Printf.sprintf "server refused the batch: %s" msg)
  | Ok (Serve.Protocol.Overloaded retry_after) ->
      Printf.eprintf
        "synth batch: server overloaded (connection budget); retry in %.1f s\n"
        retry_after;
      exit exit_overloaded
  | Ok (Serve.Protocol.Served _ | Serve.Protocol.Snapshot _ | Serve.Protocol.Goodbye) ->
      Printf.eprintf "synth batch: protocol error: unexpected response type\n";
      exit exit_unreachable
  | Ok (Serve.Protocol.Jobs served) ->
      if List.length served <> List.length keys then begin
        Printf.eprintf
          "synth batch: protocol error: %d jobs sent, %d answers received\n"
          (List.length keys) (List.length served);
        exit exit_unreachable
      end;
      print_jobs keys served;
      (match stats_json with
      | Some path ->
          write_json path
            (Jsonv.to_string
               (Serve.Protocol.response_to_json (Serve.Protocol.Jobs served)))
      | None -> ());
      batch_exit served

let run_batch jobs_file server workers timeout retries backoff budget no_cache
    cache_dir x86 stats_json fault_plan optimize =
  setup_faults fault_plan;
  match Result.bind (read_file_res jobs_file) Registry.Scheduler.parse_jobs with
  | Error msg -> `Error (false, Printf.sprintf "cannot read jobs: %s" msg)
  | Ok keys when server <> None ->
      run_batch_remote (Option.get server) keys timeout retries backoff budget
        optimize stats_json
  | Ok keys ->
      let root = if no_cache then None else Some (resolve_root cache_dir) in
      let b =
        Registry.Scheduler.run_batch ?root ~workers ?timeout ~retries ~backoff
          ?budget ~optimize keys
      in
      let render = if x86 then Isa.Program.to_x86 else Isa.Program.to_string in
      let served =
        List.map (Serve.Protocol.of_job ~render) b.Registry.Scheduler.results
      in
      print_jobs keys served;
      let c = b.Registry.Scheduler.counters in
      Printf.printf
        "# registry: %d hits, %d misses, %d quarantined, %d inserted, %d \
         recovered\n"
        c.Registry.Store.hits c.Registry.Store.misses
        c.Registry.Store.quarantined c.Registry.Store.inserted
        c.Registry.Store.recovered;
      (match stats_json with
      | Some path -> write_json path (Registry.Scheduler.batch_json b)
      | None -> ());
      batch_exit served

let batch_cmd =
  let jobs_file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"JOBS.json"
          ~doc:"JSON array of requests, e.g. [{\"n\":3},{\"n\":4,\"engine\":\"level\"}].")
  in
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Per-attempt search deadline.")
  in
  let retries =
    Arg.(
      value & opt int 1
      & info [ "retries" ] ~docv:"K"
          ~doc:
            "Extra attempts after a timeout, exhaustion, or failure \
             (default 1), with exponential backoff between attempts.")
  in
  let backoff =
    Arg.(
      value & opt float 0.05
      & info [ "backoff" ] ~docv:"SECONDS"
          ~doc:
            "Base of the exponential retry backoff: attempt k sleeps \
             $(docv) * 2^(k-1) seconds (capped at 2), scaled by a \
             deterministic per-key jitter. 0 disables the sleep.")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ] ~doc:"Synthesize every job; skip the registry.")
  in
  let batch_optimize =
    Arg.(
      value & flag
      & info [ "optimize" ]
          ~doc:
            "Run the proof-carrying optimizer over each freshly synthesized \
             kernel before storing it; the registry entry records the \
             original kernel's digest and the applied passes as provenance.")
  in
  let server =
    Arg.(
      value
      & opt (some string) None
      & info [ "server" ] ~docv:"SOCK"
          ~doc:
            "Run the batch through the synthesis daemon listening on the \
             Unix socket $(docv) instead of locally: the daemon's in-memory \
             cache, request coalescing, and worker pool serve the jobs. The \
             kernel text printed is byte-identical to a local run. Exit \
             code 5 when the server is unreachable or the response is cut \
             off.")
  in
  Cmd.v
    (Cmd.info "batch" ~exits
       ~doc:
         "Run a list of synthesis jobs: registry hits are served verified, \
          misses run across worker domains, results merge deterministically. \
          Never aborts mid-batch: a timed-out, exhausted, or crashed job is \
          reported in place and the rest of the batch completes. When all \
          failures are timeouts the exit code is 2; all budget exhaustions, \
          3; anything else, 1.")
    Term.(
      ret
        (const run_batch $ jobs_file $ server $ jobs $ timeout $ retries
        $ backoff $ state_budget $ no_cache $ cache_dir $ x86 $ stats_json
        $ fault_plan $ batch_optimize))

(* ------------------------------------------------------------------ *)
(* lint / analyze: the static analyzer over kernel files.              *)

(* Kernel files carry no register-file header; unless -n/-m are given,
   infer the smallest configuration covering the registers the kernel
   names (parse once under the widest file, then re-parse under the
   inferred one so diagnostics use the right names). *)
let infer_dims src =
  let wide = Isa.Config.make ~n:6 ~m:3 in
  match Isa.Program.of_string wide src with
  | Error e -> Error e
  | Ok p ->
      let nv = ref 0 and ns = ref 0 in
      Array.iter
        (fun i ->
          List.iter
            (fun r ->
              if r < 6 then nv := max !nv (r + 1) else ns := max !ns (r - 5))
            [ i.Isa.Instr.dst; i.Isa.Instr.src ])
        p;
      Ok (max 1 !nv, !ns)

let parse_kernel ~n ~m src =
  let ( let* ) = Result.bind in
  let* n, m =
    match (n, m) with
    | Some n, Some m -> Ok (n, m)
    | _ ->
        let* inf_n, inf_m = infer_dims src in
        Ok (Option.value n ~default:inf_n, Option.value m ~default:inf_m)
  in
  match Isa.Config.make ~n ~m with
  | cfg ->
      let* numbered = Isa.Program.of_string_numbered cfg src in
      Ok (cfg, Array.map fst numbered, Array.map snd numbered)
  | exception Invalid_argument msg -> Error msg

let print_findings file lines findings =
  List.iter
    (fun f ->
      let loc =
        match f.Analysis.Lint.index with
        | Some i when i < Array.length lines ->
            Printf.sprintf "%s:%d" file lines.(i)
        | _ -> file
      in
      Printf.printf "%s: %s[%s] %s\n" loc
        (Analysis.Lint.severity_to_string f.Analysis.Lint.severity)
        (Analysis.Lint.rule_id f.Analysis.Lint.rule)
        f.Analysis.Lint.message)
    findings

(* [lint --rules]: the stable rule-id table, one row per rule in
   declaration order. The ids, severities, and descriptions are pinned to
   the README rule table by a test. *)
let print_rules json =
  if json then begin
    let rule r =
      Jsonv.Obj
        [
          ("id", Jsonv.Str (Analysis.Lint.rule_id r));
          ( "severity",
            Jsonv.Str
              (Analysis.Lint.severity_to_string (Analysis.Lint.severity_of_rule r)) );
          ("description", Jsonv.Str (Analysis.Lint.describe r));
        ]
    in
    print_endline (Jsonv.to_string (Jsonv.Arr (List.map rule Analysis.Lint.rules)))
  end
  else
    List.iter
      (fun r ->
        Printf.printf "%-20s %-8s %s\n" (Analysis.Lint.rule_id r)
          (Analysis.Lint.severity_to_string (Analysis.Lint.severity_of_rule r))
          (Analysis.Lint.describe r))
      Analysis.Lint.rules

let run_lint files n m json rules =
  if rules then begin
    print_rules json;
    `Ok ()
  end
  else if files = [] then
    `Error (true, "no kernel files given (or pass --rules for the rule table)")
  else begin
  let reports =
    List.map
      (fun file ->
        let r =
          Result.bind (read_file_res file) (fun src -> parse_kernel ~n ~m src)
        in
        (file, r))
      files
  in
  let errors = ref 0 in
  let analyzed =
    List.map
      (fun (file, r) ->
        match r with
        | Error msg ->
            incr errors;
            (file, Error msg)
        | Ok (cfg, prog, lines) ->
            let findings = Analysis.Lint.check_all cfg prog in
            errors := !errors + List.length (Analysis.Lint.errors findings);
            (file, Ok (cfg, findings, lines)))
      reports
  in
  if json then begin
    let report (file, r) =
      match r with
      | Error msg -> Jsonv.Obj [ ("file", Jsonv.Str file); ("error", Jsonv.Str msg) ]
      | Ok (_, findings, lines) -> Analysis.Lint.report_json ~file ~lines findings
    in
    print_endline (Jsonv.to_string (Jsonv.Arr (List.map report analyzed)))
  end
  else begin
    List.iter
      (fun (file, r) ->
        match r with
        | Error msg -> Printf.printf "%s: parse error: %s\n" file msg
        | Ok (cfg, findings, lines) ->
            if findings = [] then
              Printf.printf "%s: clean (n=%d m=%d, %d instructions)\n" file
                cfg.Isa.Config.n cfg.Isa.Config.m (Array.length lines)
            else print_findings file lines findings)
      analyzed;
    let total =
      List.fold_left
        (fun acc (_, r) ->
          match r with Ok (_, fs, _) -> acc + List.length fs | Error _ -> acc)
        0 analyzed
    in
    Printf.printf "# %d file(s), %d finding(s), %d error(s)\n"
      (List.length files) total !errors
  end;
  if !errors > 0 then exit 1;
  `Ok ()
  end

let run_analyze file n m json =
  match Result.bind (read_file_res file) (fun src -> parse_kernel ~n ~m src) with
  | Error msg -> `Error (false, Printf.sprintf "%s: %s" file msg)
  | Ok (cfg, prog, lines) ->
      let findings = Analysis.Lint.check_all cfg prog in
      let sizes = Analysis.Absint.set_sizes cfg prog in
      let cert = Analysis.Certify.sorts cfg prog in
      let d = Analysis.Dce.run cfg prog in
      let removed = d.Analysis.Dce.removed in
      if json then begin
        (* Reuse the lint report as the base object and graft the abstract-
           interpretation and DCE sections on. *)
        let base =
          match Analysis.Lint.report_json ~file ~lines findings with
          | Jsonv.Obj kvs -> kvs
          | _ -> []
        in
        let open Jsonv in
        let dce =
          Obj
            [
              ("removed", Int (List.length removed));
              ( "indices",
                Arr (List.map (fun r -> Int r.Analysis.Dce.index) removed) );
              ( "rules",
                Arr
                  (List.map
                     (fun r -> Str (Analysis.Lint.rule_id r.Analysis.Dce.rule))
                     removed) );
              ("passes", Int d.Analysis.Dce.passes);
              ("refused", Bool d.Analysis.Dce.refused);
              ("certified", Bool d.Analysis.Dce.certified);
              ("length", Int (Array.length d.Analysis.Dce.optimized));
              ( "program",
                Str (Isa.Program.to_string cfg d.Analysis.Dce.optimized) );
            ]
        in
        print_endline
          (to_string
             (Obj
                (base
                @ [
                    ("n", Int cfg.Isa.Config.n);
                    ("m", Int cfg.Isa.Config.m);
                    ("length", Int (Array.length prog));
                    ( "reachable",
                      Arr (Array.to_list (Array.map (fun s -> Int s) sizes)) );
                    ("certified", Bool (Result.is_ok cert));
                    ("dce", dce);
                  ])))
      end
      else begin
        Printf.printf "# %s: n=%d m=%d, %d instructions\n" file
          cfg.Isa.Config.n cfg.Isa.Config.m (Array.length prog);
        let df = Analysis.Dataflow.analyze cfg prog in
        Array.iteri
          (fun i x ->
            Printf.printf "%3d  line %-3d  %-14s %s%s\n" i lines.(i)
              (Isa.Instr.to_string cfg x)
              (match Analysis.Dataflow.reaching_cmp df i with
              | Some j -> Printf.sprintf "flags=cmp@%d" j
              | None -> "flags=initial")
              (if Analysis.Dataflow.is_effective df i then "" else "  [dead]"))
          prog;
        Printf.printf "# reachable assignments per point: %s\n"
          (String.concat " "
             (Array.to_list (Array.map string_of_int sizes)));
        (match cert with
        | Ok () ->
            Printf.printf
              "# certification: OK — all %d reachable final assignments \
               sorted (proves correctness on all %d! inputs)\n"
              sizes.(Array.length prog) cfg.Isa.Config.n
        | Error msg -> Printf.printf "# certification: FAILED — %s\n" msg);
        if findings = [] then Printf.printf "# findings: none\n"
        else begin
          Printf.printf "# findings: %s\n" (Analysis.Lint.summary findings);
          print_findings file lines findings
        end;
        if removed = [] then
          Printf.printf "# dce: nothing to remove (%d passes)\n"
            d.Analysis.Dce.passes
        else begin
          Printf.printf "# dce: removed %d instruction(s) in %d passes: %s\n"
            (List.length removed) d.Analysis.Dce.passes
            (String.concat ", "
               (List.map
                  (fun r ->
                    Printf.sprintf "%d[%s]" r.Analysis.Dce.index
                      (Analysis.Lint.rule_id r.Analysis.Dce.rule))
                  removed));
          Printf.printf "# dce: %d instructions remain, re-certification %s\n"
            (Array.length d.Analysis.Dce.optimized)
            (if d.Analysis.Dce.refused then "REFUSED THE REWRITE"
             else if d.Analysis.Dce.certified then "OK"
             else "n/a (input does not sort)");
          print_endline (Isa.Program.to_string cfg d.Analysis.Dce.optimized)
        end
      end;
      `Ok ()

let files_arg =
  Arg.(
    value
    & pos_all file []
    & info [] ~docv:"KERNEL.txt"
        ~doc:"Kernel files in Isa.Program.to_string form ('mov s1 r1' …).")

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"KERNEL.txt"
        ~doc:"Kernel file in Isa.Program.to_string form.")

let opt_n =
  Arg.(
    value
    & opt (some int) None
    & info [ "n" ] ~docv:"N"
        ~doc:
          "Value registers (default: inferred from the highest register the \
           kernel names).")

let opt_m =
  Arg.(
    value
    & opt (some int) None
    & info [ "scratch"; "m" ] ~docv:"M"
        ~doc:"Scratch registers (default: inferred, see $(b,--n)).")

let json_flag =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit a machine-readable JSON report on stdout.")

let rules_flag =
  Arg.(
    value & flag
    & info [ "rules" ]
        ~doc:
          "Print the stable rule-id table (id, severity, one-line \
           description) and exit; no kernel files are read.")

let lint_cmd =
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the static analyzer over kernel files: dataflow lints (dead \
          writes, unconsumed cmps, orphan cmovs, uninitialized scratch \
          reads, trailing code) plus the permutation-set abstract \
          interpreter (semantic no-ops, sortedness certification). Exits 1 \
          on any ERROR finding. With $(b,--rules), prints the stable \
          rule-id table (id, severity, description) instead.")
    Term.(
      ret (const run_lint $ files_arg $ opt_n $ opt_m $ json_flag $ rules_flag))

let analyze_cmd =
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Full static-analysis report for one kernel: per-instruction \
          dataflow facts, reachable-assignment counts per program point, \
          the abstract correctness certificate, lint findings, and the \
          proof-carrying DCE result (with the shrunk kernel when anything \
          was removable).")
    Term.(ret (const run_analyze $ file_arg $ opt_n $ opt_m $ json_flag))

(* ------------------------------------------------------------------ *)
(* devlint: the self-hosted concurrency-and-discipline linter over this
   repository's own OCaml source (lib/ + bin/), on compiler-libs. The
   committed devlint.waivers file is the only silencing mechanism;
   unwaived findings (or parse errors) exit 1, which is the CI gate.   *)

let run_devlint paths json rules waivers_path =
  if rules then begin
    if json then begin
      let rule r =
        Jsonv.Obj
          [
            ("id", Jsonv.Str (Devlint.Rule.id r));
            ("title", Jsonv.Str (Devlint.Rule.title r));
            ("description", Jsonv.Str (Devlint.Rule.describe r));
            ("hint", Jsonv.Str (Devlint.Rule.hint r));
          ]
      in
      print_endline (Jsonv.to_string (Jsonv.Arr (List.map rule Devlint.Rule.all)))
    end
    else
      List.iter
        (fun r ->
          Printf.printf "%-7s %-22s %s\n" (Devlint.Rule.id r)
            (Devlint.Rule.title r) (Devlint.Rule.describe r))
        Devlint.Rule.all;
    `Ok ()
  end
  else
    match Devlint.Waivers.load waivers_path with
    | Error e -> `Error (false, e)
    | Ok waivers ->
        let files = Devlint.Lint.files_under paths in
        let errors = ref [] in
        let findings = ref [] in
        List.iter
          (fun f ->
            match Devlint.Lint.check_file f with
            | Error e -> errors := (f, e) :: !errors
            | Ok fs -> findings := fs :: !findings)
          files;
        let all =
          List.sort Devlint.Lint.compare_finding
            (List.concat (List.rev !findings))
        in
        let unwaived, waived, unused = Devlint.Waivers.split waivers all in
        let run =
          {
            Devlint.Report.unwaived;
            waived;
            unused;
            errors = List.rev !errors;
            files_scanned = List.length files;
          }
        in
        print_string
          (if json then Devlint.Report.json run ^ "\n"
           else Devlint.Report.text run);
        if Devlint.Report.exit_code run <> 0 then exit 1;
        `Ok ()

let devlint_paths =
  Arg.(
    value
    & pos_all string [ "lib"; "bin" ]
    & info [] ~docv:"PATH"
        ~doc:
          "Files or directories to scan ($(b,.ml) files, recursively; \
           default: $(b,lib bin)).")

let devlint_waivers_arg =
  Arg.(
    value
    & opt string "devlint.waivers"
    & info [ "waivers" ] ~docv:"FILE"
        ~doc:
          "Waiver file: one $(b,'DLxxx path justification') per line, \
           justification mandatory. The only way to silence a finding.")

let devlint_rules_flag =
  Arg.(
    value & flag
    & info [ "rules" ]
        ~doc:
          "Print the stable devlint rule table (id, title, one-line \
           description) and exit; nothing is scanned.")

let devlint_cmd =
  Cmd.v
    (Cmd.info "devlint"
       ~doc:
         "Lint this repository's own source for Domain-parallel and \
          durability discipline: mutable state shared into Domain.spawn \
          without Atomic/Mutex, raw wall-clock reads and unwarped sleeps \
          outside lib/fault, Sys.rename without fsync, double-closed \
          descriptors, and catch-all exception swallows in daemon paths. \
          Findings are silenced only via the committed waiver file; any \
          unwaived finding exits 1. With $(b,--rules), prints the stable \
          rule-id table instead.")
    Term.(
      ret
        (const run_devlint $ devlint_paths $ json_flag $ devlint_rules_flag
        $ devlint_waivers_arg))

(* ------------------------------------------------------------------ *)
(* certify: the CLI face of [Analysis.Certify.decide] — the symbolic
   sortedness certifier, exact fallback on Unknown.                    *)

let run_certify files n m json =
  if files = [] then `Error (true, "no kernel files given")
  else begin
    let failures = ref 0 in
    let reports =
      List.map
        (fun file ->
          match
            Result.bind (read_file_res file) (fun src ->
                parse_kernel ~n ~m src)
          with
          | Error msg ->
              incr failures;
              (file, Error msg)
          | Ok (cfg, prog, _lines) ->
              let { Analysis.Certify.symbolic; result } =
                Analysis.Certify.decide cfg prog
              in
              let method_ =
                match symbolic with
                | Analysis.Symcert.Unknown _ -> "exact"
                | _ -> "symbolic"
              in
              let detail =
                match (result, symbolic) with
                | Error line, _ -> line
                | Ok (), Analysis.Symcert.Unknown reason ->
                    Printf.sprintf
                      "unknown symbolically (%s); proved by the exhaustive \
                       n! check"
                      reason
                | Ok (), _ -> Analysis.Symcert.explain symbolic
              in
              if Result.is_error result then incr failures;
              ( file,
                Ok
                  ( cfg,
                    Analysis.Symcert.verdict_name symbolic,
                    Result.is_ok result,
                    method_,
                    detail ) ))
        files
    in
    if json then begin
      let report (file, r) =
        match r with
        | Error msg -> Jsonv.Obj [ ("file", Jsonv.Str file); ("error", Jsonv.Str msg) ]
        | Ok (cfg, verdict, certified, method_, detail) ->
            Jsonv.Obj
              [
                ("file", Jsonv.Str file);
                ("n", Jsonv.Int cfg.Isa.Config.n);
                ("m", Jsonv.Int cfg.Isa.Config.m);
                ("verdict", Jsonv.Str verdict);
                ("certified", Jsonv.Bool certified);
                ("method", Jsonv.Str method_);
                ("detail", Jsonv.Str detail);
              ]
      in
      print_endline (Jsonv.to_string (Jsonv.Arr (List.map report reports)))
    end
    else
      List.iter
        (fun (file, r) ->
          match r with
          | Error msg -> Printf.printf "%s: parse error: %s\n" file msg
          | Ok (_, verdict, certified, method_, detail) ->
              Printf.printf "%s: %s%s (%s): %s\n" file
                (if certified then "certified" else "NOT CERTIFIED")
                (Printf.sprintf " [%s]" verdict)
                method_ detail)
        reports;
    if !failures > 0 then exit 1;
    `Ok ()
  end

let certify_cmd =
  Cmd.v
    (Cmd.info "certify" ~exits
       ~doc:
         "Certify kernel files as sorting kernels: the symbolic \
          order-poset certifier first (polynomial, no n! enumeration), \
          the paper's exhaustive permutation check only on an \
          $(i,unknown) verdict. A $(i,refuted) verdict always carries an \
          execution-confirmed counterexample. Exits 1 when any file \
          fails to certify (or to parse).")
    Term.(
      ret
        (const run_certify $ files_arg $ opt_n $ opt_m $ json_flag))

(* ------------------------------------------------------------------ *)
(* optimize / equiv: the proof-carrying optimizer and the translation- *)
(* validation equivalence engine over kernel files.                    *)

let write_text path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* The 0-1 shortcut is sound only once the kernel is {e syntactically} a
   comparator network (paper §2.3) — hence extraction first, and the
   2^n binary check only on the extracted network. *)
let network_verdict cfg p =
  match Opt.Extract.run cfg p with
  | Opt.Extract.Rejected { index; reason } -> Error (index, reason)
  | Opt.Extract.Network net ->
      let optimal_size =
        if cfg.Isa.Config.n >= 1 && cfg.Isa.Config.n <= 8 then
          Some (Sortnet.size (Sortnet.optimal cfg.Isa.Config.n))
        else None
      in
      Ok (net, Sortnet.sorts_all_binary net, optimal_size)

let run_optimize file n m json out x86 fault_plan =
  setup_faults fault_plan;
  match Result.bind (read_file_res file) (fun src -> parse_kernel ~n ~m src) with
  | Error msg -> `Error (false, Printf.sprintf "%s: %s" file msg)
  | Ok (cfg, prog, _lines) ->
      let rep = Opt.Pipeline.run cfg prog in
      let p = rep.Opt.Pipeline.optimized in
      let before = Perf.Cost.analyze cfg prog
      and after = Perf.Cost.analyze cfg p in
      let cyc_before = Perf.Cost.simulated_cycles cfg prog
      and cyc_after = Perf.Cost.simulated_cycles cfg p in
      let rendered =
        if x86 then Isa.Program.to_x86 cfg p else Isa.Program.to_string cfg p
      in
      let net = network_verdict cfg p in
      if json then begin
        let open Jsonv in
        let delta_obj (d : Opt.Pipeline.delta) =
          Obj
            [
              ("pass", Str d.Opt.Pipeline.pass);
              ("round", Int d.Opt.Pipeline.round);
              ("instructions_before", Int d.Opt.Pipeline.instructions_before);
              ("instructions_after", Int d.Opt.Pipeline.instructions_after);
              ("cycles_before", Int d.Opt.Pipeline.cycles_before);
              ("cycles_after", Int d.Opt.Pipeline.cycles_after);
              ("critical_before", Int d.Opt.Pipeline.critical_before);
              ("critical_after", Int d.Opt.Pipeline.critical_after);
            ]
        in
        let refusal_obj (f : Opt.Pipeline.refusal) =
          Obj
            [
              ("pass", Str f.Opt.Pipeline.pass);
              ("round", Int f.Opt.Pipeline.round);
              ("reason", Str f.Opt.Pipeline.reason);
            ]
        in
        (* "passes" is the deduplicated applied-pass set in sorted order
           (byte-stable); "deltas" keeps application order, which is
           deterministic for a given input. *)
        let passes =
          List.sort_uniq compare
            (List.map
               (fun (d : Opt.Pipeline.delta) -> d.Opt.Pipeline.pass)
               rep.Opt.Pipeline.deltas)
        in
        let network =
          match net with
          | Error (index, reason) ->
              Obj
                [
                  ("extracted", Bool false);
                  ("index", Int index);
                  ("reason", Str reason);
                ]
          | Ok (net, zero_one, optimal_size) ->
              Obj
                ([
                   ("extracted", Bool true);
                   ( "comparators",
                     Arr
                       (List.map
                          (fun (i, j) -> Arr [ Int i; Int j ])
                          net.Sortnet.comparators) );
                   ("size", Int (Sortnet.size net));
                   ("zero_one_certified", Bool zero_one);
                 ]
                @
                match optimal_size with
                | Some s -> [ ("optimal_size", Int s) ]
                | None -> [])
        in
        print_endline
          (to_string
             (Obj
                [
                  ("file", Str file);
                  ("n", Int cfg.Isa.Config.n);
                  ("m", Int cfg.Isa.Config.m);
                  ("instructions_before", Int before.Perf.Cost.instructions);
                  ("instructions_after", Int after.Perf.Cost.instructions);
                  ("cycles_before", Int cyc_before);
                  ("cycles_after", Int cyc_after);
                  ("critical_before", Int before.Perf.Cost.critical_path);
                  ("critical_after", Int after.Perf.Cost.critical_path);
                  ("rounds", Int rep.Opt.Pipeline.rounds);
                  ("certified", Bool rep.Opt.Pipeline.certified);
                  ("passes", Arr (List.map (fun s -> Str s) passes));
                  ("deltas", Arr (List.map delta_obj rep.Opt.Pipeline.deltas));
                  ( "refusals",
                    Arr (List.map refusal_obj rep.Opt.Pipeline.refusals) );
                  ("network", network);
                  ("program", Str rendered);
                ]))
      end
      else begin
        Printf.printf "# %s: n=%d m=%d\n" file cfg.Isa.Config.n
          cfg.Isa.Config.m;
        List.iter
          (fun (d : Opt.Pipeline.delta) ->
            Printf.printf
              "# round %d %s: %d -> %d instructions, %d -> %d simulated \
               cycles, %d -> %d critical path\n"
              d.Opt.Pipeline.round d.Opt.Pipeline.pass
              d.Opt.Pipeline.instructions_before
              d.Opt.Pipeline.instructions_after d.Opt.Pipeline.cycles_before
              d.Opt.Pipeline.cycles_after d.Opt.Pipeline.critical_before
              d.Opt.Pipeline.critical_after)
          rep.Opt.Pipeline.deltas;
        List.iter
          (fun (f : Opt.Pipeline.refusal) ->
            Printf.printf "# round %d %s: REFUSED — %s\n" f.Opt.Pipeline.round
              f.Opt.Pipeline.pass f.Opt.Pipeline.reason)
          rep.Opt.Pipeline.refusals;
        Printf.printf
          "# total: %d -> %d instructions, %d -> %d simulated cycles, %d -> \
           %d critical path (%d round(s))\n"
          before.Perf.Cost.instructions after.Perf.Cost.instructions cyc_before
          cyc_after before.Perf.Cost.critical_path after.Perf.Cost.critical_path
          rep.Opt.Pipeline.rounds;
        Printf.printf "# certified: %s\n"
          (if rep.Opt.Pipeline.certified then
             Printf.sprintf "OK — sorts all %d! permutations"
               cfg.Isa.Config.n
           else "NO (input does not certify)");
        (match net with
        | Ok (net, zero_one, optimal_size) ->
            Printf.printf
              "# network: extracted %d comparator(s) [%s], 0-1 certified: %s%s\n"
              (Sortnet.size net)
              (String.concat " "
                 (List.map
                    (fun (i, j) -> Printf.sprintf "(%d,%d)" i j)
                    net.Sortnet.comparators))
              (if zero_one then "yes" else "NO")
              (match optimal_size with
              | Some s when Sortnet.size net = s -> " — size-optimal"
              | Some s ->
                  Printf.sprintf " — known optimal is %d comparator(s)" s
              | None -> "")
        | Error (index, reason) ->
            Printf.printf "# network: not extractable at instruction %d: %s\n"
              index reason);
        match out with
        | None -> print_string rendered
        | Some _ -> ()
      end;
      (match out with
      | Some path ->
          write_text path rendered;
          if not json then Printf.printf "# wrote %s\n" path
      | None -> ());
      `Ok ()

let run_equiv file_a file_b n m json =
  let ( let* ) = Result.bind in
  let parsed =
    let* src_a = read_file_res file_a in
    let* src_b = read_file_res file_b in
    (* Both kernels must run in one register file: unless -n/-m pin it,
       take the widest configuration either file needs. *)
    let* n, m =
      match (n, m) with
      | Some n, Some m -> Ok (n, m)
      | _ ->
          let* na, ma = infer_dims src_a in
          let* nb, mb = infer_dims src_b in
          Ok
            ( Option.value n ~default:(max na nb),
              Option.value m ~default:(max ma mb) )
    in
    let* cfg, pa, _ = parse_kernel ~n:(Some n) ~m:(Some m) src_a in
    let* _, pb, _ = parse_kernel ~n:(Some n) ~m:(Some m) src_b in
    Ok (cfg, pa, pb)
  in
  match parsed with
  | Error msg -> `Error (false, msg)
  | Ok (cfg, pa, pb) -> (
      let ints a = Jsonv.Arr (List.map (fun v -> Jsonv.Int v) (Array.to_list a)) in
      match Analysis.Certify.equivalent cfg pa pb with
      | Ok () ->
          if json then
            print_endline
              (Jsonv.to_string
                 (Jsonv.Obj
                    [
                      ("a", Jsonv.Str file_a);
                      ("b", Jsonv.Str file_b);
                      ("n", Jsonv.Int cfg.Isa.Config.n);
                      ("m", Jsonv.Int cfg.Isa.Config.m);
                      ("equivalent", Jsonv.Bool true);
                    ]))
          else
            Printf.printf
              "%s and %s are equivalent: bit-identical value registers on \
               all %d! permutations\n"
              file_a file_b cfg.Isa.Config.n;
          `Ok ()
      | Error { Analysis.Certify.input; out_a; out_b } ->
          if json then
            print_endline
              (Jsonv.to_string
                 (Jsonv.Obj
                    [
                      ("a", Jsonv.Str file_a);
                      ("b", Jsonv.Str file_b);
                      ("n", Jsonv.Int cfg.Isa.Config.n);
                      ("m", Jsonv.Int cfg.Isa.Config.m);
                      ("equivalent", Jsonv.Bool false);
                      ("input", ints input);
                      ("output_a", ints out_a);
                      ("output_b", ints out_b);
                    ]))
          else begin
            let arr a =
              String.concat " " (List.map string_of_int (Array.to_list a))
            in
            Printf.printf "%s and %s DIFFER\n" file_a file_b;
            Printf.printf "counterexample input: %s\n" (arr input);
            Printf.printf "%s output:            %s\n" file_a (arr out_a);
            Printf.printf "%s output:            %s\n" file_b (arr out_b)
          end;
          exit 1)

let optimize_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the optimized kernel to $(docv) instead of stdout.")
  in
  Cmd.v
    (Cmd.info "optimize" ~exits
       ~doc:
         "Run the proof-carrying pass pipeline (copy propagation, redundant-\
          cmp elimination, cmov coalescing, DCE, canonical renaming, list \
          scheduling) to fixpoint over a kernel file. Every rewrite is \
          accepted only with a certificate — bit-identical value registers \
          on all n! permutations, re-checked by the sortedness certifier — \
          and refused otherwise, leaving the kernel unchanged. Also reports \
          whether the result is syntactically a comparator network (then \
          0-1 certified and compared against the known-optimal size).")
    Term.(
      ret
        (const run_optimize $ file_arg $ opt_n $ opt_m $ json_flag $ out_arg
        $ x86 $ fault_plan))

let equiv_cmd =
  let file_b =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"B.txt" ~doc:"Second kernel file.")
  in
  Cmd.v
    (Cmd.info "equiv" ~exits
       ~doc:
         "Decide whether two kernel files compute identical value-register \
          outputs on every input, by exact comparison over all n! \
          permutations (translation validation, not the 0-1 shortcut — \
          sound for arbitrary cmov kernels, not just networks). Exits 0 \
          when equivalent; exits 1 with a concrete counterexample \
          permutation and both outputs when they differ.")
    Term.(
      ret (const run_equiv $ file_arg $ file_b $ opt_n $ opt_m $ json_flag))

(* ------------------------------------------------------------------ *)
(* registry list | verify | gc                                         *)

let registry_list cache_dir count =
  let root = resolve_root cache_dir in
  (* One walk answers every count — entry names, layout split, torn temp
     dirs, quarantine population — so [--count] never opens a meta.json
     and the full listing only reads metadata for the lines it prints. *)
  let s = Registry.Store.scan ~root in
  Printf.printf "# %d entries in %s (%d quarantined)\n"
    (List.length s.Registry.Store.hashes)
    root s.Registry.Store.quarantined;
  if count then begin
    Printf.printf "# layout: %d sharded, %d flat (v1), %d shard dir(s), %d \
                   torn temp dir(s)\n"
      (List.length s.Registry.Store.hashes - List.length s.Registry.Store.flat)
      (List.length s.Registry.Store.flat)
      s.Registry.Store.shards
      (List.length s.Registry.Store.tmp);
    `Ok ()
  end
  else begin
    List.iter
      (fun h ->
        match Registry.Store.load_unverified ~root h with
        | Ok e ->
            Printf.printf "%s  %s  len=%d cost=%.2f expanded=%d\n"
              (String.sub h 0 12)
              (Registry.Key.describe e.Registry.Store.key)
              e.Registry.Store.length e.Registry.Store.predicted_cost
              e.Registry.Store.expanded
        | Error msg ->
            Printf.printf "%s  <unreadable: %s>\n" (String.sub h 0 12) msg)
      s.Registry.Store.hashes;
    `Ok ()
  end

let registry_migrate cache_dir =
  let root = resolve_root cache_dir in
  let m = Registry.Store.migrate ~root () in
  Printf.printf "# migrated: %d moved into shards, %d already sharded, %d \
                 conflict(s) left in place\n"
    m.Registry.Store.moved m.Registry.Store.already_sharded
    m.Registry.Store.conflicts;
  if m.Registry.Store.conflicts > 0 then
    Printf.eprintf
      "synth: registry: %d flat entries have a sharded twin that wins every \
       lookup; inspect and remove the flat copies manually\n"
      m.Registry.Store.conflicts;
  `Ok ()

let registry_verify cache_dir lint stats_json =
  let root = resolve_root cache_dir in
  let counters = Registry.Store.fresh_counters () in
  let rcv = Registry.Store.recover ~counters ~root () in
  if rcv.Registry.Store.rolled_back > 0 then
    Printf.printf "# recovered: %d torn insert(s) rolled back\n"
      rcv.Registry.Store.rolled_back;
  if rcv.Registry.Store.requarantined > 0 then
    Printf.printf "# recovered: %d half-written entries re-quarantined\n"
      rcv.Registry.Store.requarantined;
  let checked = Registry.Store.verify_all ~counters ~lint ~root () in
  let bad = ref 0 in
  List.iter
    (fun (h, r) ->
      match r with
      | Ok _ -> Printf.printf "%s  ok\n" (String.sub h 0 12)
      | Error msg ->
          incr bad;
          Printf.printf "%s  QUARANTINED: %s\n" (String.sub h 0 12) msg)
    checked;
  Printf.printf "# %d ok, %d quarantined (%d by the static analyzer)\n"
    (List.length checked - !bad)
    !bad counters.Registry.Store.lint_errors;
  (match stats_json with
  | None -> ()
  | Some path ->
      write_json path
        (Jsonv.to_string
           (Jsonv.Obj
              [
                ("label", Jsonv.Str "registry verify");
                ("root", Jsonv.Str root);
                ("lint", Jsonv.Bool lint);
                ("checked", Jsonv.Int (List.length checked));
                ("ok", Jsonv.Int (List.length checked - !bad));
                ("registry", Registry.Store.counters_json counters);
              ])));
  (* Any corrupted entry — found by the recovery scan or the certify
     sweep — is the documented "registry corruption" exit code. *)
  if !bad + rcv.Registry.Store.requarantined > 0 then exit exit_corrupt;
  `Ok ()

let registry_gc cache_dir dry_run =
  let root = resolve_root cache_dir in
  (* Recovery mutates the store (rollback / re-quarantine), so a dry run
     must skip it: --dry-run touches nothing on disk. *)
  if not dry_run then begin
    let rcv = Registry.Store.recover ~root () in
    if rcv.Registry.Store.rolled_back > 0 then
      Printf.printf "# recovered: %d torn insert(s) rolled back\n"
        rcv.Registry.Store.rolled_back
  end;
  let report = Registry.Store.gc ~dry_run ~root () in
  List.iter
    (fun v ->
      Printf.printf "%s %s\n" (if dry_run then "would purge" else "purged") v)
    report.Registry.Store.victims;
  Printf.printf "# %d entries kept, %d purged%s, %d bytes %s\n"
    report.Registry.Store.kept report.Registry.Store.purged
    (if dry_run then " (dry run: nothing removed)" else "")
    report.Registry.Store.reclaimed_bytes
    (if dry_run then "would be reclaimed" else "reclaimed");
  `Ok ()

let registry_cmd =
  let count_flag =
    Arg.(
      value & flag
      & info [ "count" ]
          ~doc:
            "Print only the counts (entries, layout split, quarantine) from \
             a single directory walk — no per-entry metadata is read.")
  in
  let list_cmd =
    Cmd.v
      (Cmd.info "list" ~doc:"List stored entries (no verification).")
      Term.(ret (const registry_list $ cache_dir $ count_flag))
  in
  let migrate_cmd =
    Cmd.v
      (Cmd.info "migrate"
         ~doc:
           "Rename every flat v1 entry (store/<hash>) into its shard \
            directory (store/<hh>/<hash>). Each move is one atomic rename; \
            interrupting and re-running is safe, and both layouts stay \
            readable throughout. Flat entries whose sharded twin already \
            exists are reported and left in place.")
      Term.(ret (const registry_migrate $ cache_dir))
  in
  let lint_flag =
    Arg.(
      value & flag
      & info [ "lint" ]
          ~doc:
            "Also run the static analyzer over every entry that certifies; \
             quarantine entries with ERROR-level findings (a provably \
             removable instruction in a supposedly optimal kernel).")
  in
  let verify_cmd =
    Cmd.v
      (Cmd.info "verify" ~exits
         ~doc:
           "Run the crash-recovery scan, then re-certify every entry; \
            quarantine and report failures (exit 4 if any entry was \
            corrupted). With $(b,--lint), entries must also be lint-clean.")
      Term.(ret (const registry_verify $ cache_dir $ lint_flag $ stats_json))
  in
  let dry_run_flag =
    Arg.(
      value & flag
      & info [ "dry-run" ]
          ~doc:
            "Report what gc would remove (victims, entry count, reclaimable \
             bytes) without touching the store — no recovery, no \
             quarantining, no deletion.")
  in
  let gc_cmd =
    Cmd.v
      (Cmd.info "gc"
         ~doc:
           "Re-certify every entry, quarantine failures, then delete the \
            quarantine area, reporting the reclaimed entries and bytes. \
            With $(b,--dry-run), only report what would be removed.")
      Term.(ret (const registry_gc $ cache_dir $ dry_run_flag))
  in
  Cmd.group
    (Cmd.info "registry" ~doc:"Inspect and maintain the on-disk kernel registry.")
    [ list_cmd; verify_cmd; gc_cmd; migrate_cmd ]

(* ------------------------------------------------------------------ *)
(* serve / client: the long-lived synthesis daemon and its thin client. *)

let run_serve socket cache_dir capacity workers max_conns max_queue
    breaker_threshold breaker_cooldown drain_grace stats_json fault_plan =
  setup_faults fault_plan;
  let root = resolve_root cache_dir in
  let cfg =
    {
      Serve.Server.socket_path = socket;
      root;
      capacity;
      workers;
      max_conns;
      max_queue;
      breaker_threshold;
      breaker_cooldown;
      drain_grace;
    }
  in
  let t = Serve.Server.create cfg in
  Serve.Server.run
    ~on_ready:(fun () -> Printf.printf "# serve: listening on %s\n%!" socket)
    ~handle_signals:true t;
  (match stats_json with
  | Some path ->
      write_json path (Jsonv.to_string (Serve.Server.snapshot t))
  | None -> ());
  `Ok ()

let serve_cmd =
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Unix domain socket to listen on (unlinked and rebound).")
  in
  let capacity =
    Arg.(
      value & opt int 128
      & info [ "capacity" ] ~docv:"N"
          ~doc:
            "In-memory LRU capacity in entries. Warm hits are served with \
             zero directory scans and zero re-certifications; 0 disables \
             the memory layer.")
  in
  let workers =
    Arg.(
      value & opt int 2
      & info [ "workers"; "j" ] ~docv:"N"
          ~doc:"Persistent search worker domains (default 2).")
  in
  let max_conns =
    Arg.(
      value & opt int 64
      & info [ "max-conns" ] ~docv:"N"
          ~doc:
            "Concurrent connection budget. A connection over the budget is \
             answered with one typed 'overloaded' line (never silently \
             dropped) and closed; clients see exit code 6.")
  in
  let max_queue =
    Arg.(
      value & opt int 32
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Bounded pending-request queue in front of the worker pool. A \
             request that would wait behind $(docv) queued jobs is shed \
             with a typed 'overloaded' response and a retry_after hint.")
  in
  let breaker_threshold =
    Arg.(
      value & opt int 3
      & info [ "breaker-threshold" ] ~docv:"K"
          ~doc:
            "Poison-key circuit breaker: $(docv) consecutive crashed or \
             budget-exhausted outcomes for the same canonical key trip its \
             breaker; further requests fast-fail with 'circuit_open' \
             instead of burning workers.")
  in
  let breaker_cooldown =
    Arg.(
      value & opt float 5.0
      & info [ "breaker-cooldown" ] ~docv:"SECONDS"
          ~doc:
            "Seconds a tripped breaker stays open before half-opening to \
             admit a single probe request (monotonic clock).")
  in
  let drain_grace =
    Arg.(
      value & opt float 5.0
      & info [ "drain-grace" ] ~docv:"SECONDS"
          ~doc:
            "Graceful-drain deadline: on SIGTERM/SIGINT the daemon stops \
             accepting, sheds queued work, waits up to $(docv) seconds for \
             in-flight jobs, then persists the LRU warm set for the next \
             start.")
  in
  Cmd.v
    (Cmd.info "serve" ~exits
       ~doc:
         "Run the long-lived synthesis daemon: newline-delimited JSON over \
          a Unix domain socket (ops: lookup, synth, batch, stats, \
          shutdown). Three serving layers — a bounded in-memory LRU over \
          certified entries, the sharded on-disk registry (crash recovery \
          at open and after any quarantine), and a persistent worker pool \
          running the scheduler's degradation ladder. Identical concurrent \
          requests coalesce onto one search. Admission control sheds \
          excess load with typed responses ($(b,--max-conns), \
          $(b,--max-queue)), a per-key circuit breaker fast-fails poison \
          keys, and SIGTERM/SIGINT drain gracefully — finishing in-flight \
          work and persisting the warm set, restored (re-certified) on \
          restart. Runs until a shutdown request or signal arrives; with \
          $(b,--stats-json), writes the final counter snapshot on exit.")
    Term.(
      ret
        (const run_serve $ socket $ cache_dir $ capacity $ workers $ max_conns
        $ max_queue $ breaker_threshold $ breaker_cooldown $ drain_grace
        $ stats_json $ fault_plan))

let print_served (s : Serve.Protocol.served) =
  Printf.printf "# %s%s%s: %s (%.3f s server-side)\n" s.Serve.Protocol.status
    (match s.Serve.Protocol.source with Some src -> " from " ^ src | None -> "")
    (if s.Serve.Protocol.coalesced then ", coalesced" else "")
    s.Serve.Protocol.canonical s.Serve.Protocol.elapsed;
  (match s.Serve.Protocol.error with
  | Some e -> Printf.eprintf "synth client: server: %s\n" e
  | None -> ());
  (match s.Serve.Protocol.kernel with Some k -> print_endline k | None -> ());
  match s.Serve.Protocol.status with
  | "cached" | "synthesized" -> `Ok ()
  | status ->
      let code = failure_exit [ status ] in
      (match s.Serve.Protocol.retry_after with
      | Some r when code = exit_overloaded ->
          Printf.eprintf "synth client: retry in %.1f s\n" r
      | _ -> ());
      exit code

let run_client server op n scratch engine heuristic cut max_len timeout budget
    deadline optimize stats_json fault_plan =
  setup_faults fault_plan;
  (* The absolute deadline propagated with the request: --deadline wins,
     else it is derived from --timeout (per-attempt budget for the
     server's default 1+1 attempts, plus a second of slack). *)
  let abs_deadline =
    match deadline with
    | Some d -> Some (Fault.Clock.now () +. d)
    | None ->
        Option.map (fun t -> Fault.Clock.now () +. (t *. 2.0) +. 1.0) timeout
  in
  let req =
    match op with
    | `Stats -> Serve.Protocol.Stats
    | `Shutdown -> Serve.Protocol.Shutdown
    | (`Lookup | `Synth) as op ->
        let key =
          Registry.Key.make ~m:scratch ~engine ~heuristic
            ~cut:(Registry.Key.cut_of_factor cut) ?max_len n
        in
        if op = `Lookup then Serve.Protocol.Lookup key
        else
          Serve.Protocol.Synth
            ( key,
              {
                Serve.Protocol.default_params with
                timeout;
                budget;
                optimize;
                deadline = abs_deadline;
              } )
  in
  match Serve.Client.roundtrip ~socket:server req with
  | Error msg ->
      Printf.eprintf "synth client: %s\n" msg;
      exit exit_unreachable
  | Ok (Serve.Protocol.Refused msg) ->
      Printf.eprintf "synth client: server refused: %s\n" msg;
      exit 1
  | Ok (Serve.Protocol.Overloaded retry_after) ->
      Printf.eprintf
        "synth client: server overloaded (connection budget); retry in %.1f s\n"
        retry_after;
      exit exit_overloaded
  | Ok Serve.Protocol.Goodbye ->
      Printf.printf "# server shutting down\n";
      `Ok ()
  | Ok (Serve.Protocol.Snapshot j) ->
      let rendered = Jsonv.to_string j in
      (match stats_json with
      | Some path -> write_json path rendered
      | None -> print_endline rendered);
      `Ok ()
  | Ok (Serve.Protocol.Served s) -> print_served s
  | Ok (Serve.Protocol.Jobs _) ->
      Printf.eprintf "synth client: protocol error: unexpected jobs response\n";
      exit exit_unreachable

let client_cmd =
  let server =
    Arg.(
      required
      & opt (some string) None
      & info [ "server" ] ~docv:"SOCK"
          ~doc:"Unix socket of a running $(b,synth serve) daemon.")
  in
  let op =
    Arg.(
      value
      & opt
          (enum
             [
               ("synth", `Synth);
               ("lookup", `Lookup);
               ("stats", `Stats);
               ("shutdown", `Shutdown);
             ])
          `Synth
      & info [ "op" ] ~docv:"OP"
          ~doc:
            "Request to send: $(b,synth) (serve or synthesize), $(b,lookup) \
             (cache/registry probe only, never searches), $(b,stats) \
             (counter snapshot as JSON), or $(b,shutdown).")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Total patience for this request, propagated to the server as \
             an absolute deadline: a request still queued when it passes \
             is shed server-side ('timed_out') instead of burning a \
             worker. Defaults to a deadline derived from $(b,--timeout) \
             when that is set.")
  in
  Cmd.v
    (Cmd.info "client" ~exits
       ~doc:
         "One request against a running synthesis daemon. Key flags (-n, \
          --engine, ...) mirror the default command; the response kernel \
          prints exactly as a local synthesis would print it. Exit code 5 \
          when the daemon is unreachable or the response is torn or \
          unparsable; otherwise the served status maps to the usual codes \
          (cached/synthesized 0, timed out 2, exhausted 3, shed by the \
          server — overloaded or circuit_open — 6, failed 1).")
    Term.(
      ret
        (const run_client $ server $ op $ n $ scratch $ engine $ heuristic
        $ cut $ max_len $ timeout_arg $ state_budget $ deadline
        $ optimize_flag $ stats_json $ fault_plan))

(* ------------------------------------------------------------------ *)

let cmd =
  Cmd.group ~default:default_term
    (Cmd.info "synth" ~exits
       ~doc:"Synthesize branchless sorting kernels (CGO'25 reproduction)")
    [
      batch_cmd;
      registry_cmd;
      serve_cmd;
      client_cmd;
      lint_cmd;
      analyze_cmd;
      devlint_cmd;
      certify_cmd;
      optimize_cmd;
      equiv_cmd;
    ]

let () = exit (Cmd.eval cmd)
