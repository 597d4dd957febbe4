(* Bechamel micro-benchmarks: one test per table/figure of the paper's
   evaluation, each exercising the code path that regenerates that artifact
   at a budget that keeps the whole suite in the minutes range. The full
   tables themselves are produced by `dune exec bin/experiments.exe`
   (see EXPERIMENTS.md for the recorded outputs). *)

open Bechamel
open Toolkit

let cfg3 = Isa.Config.default 3

(* Shared inputs prepared once, outside the timed sections. *)
let paper3 = Perf.Kernels.paper_sort3
let network4 = Perf.Kernels.network 4
let network5 = Perf.Kernels.network 5

let solutions3 =
  lazy
    (let opts =
       { Search.best with Search.engine = Search.Level_sync; max_solutions = 300 }
     in
     (Search.run_mode ~opts ~mode:Search.All_optimal cfg3).Search.programs)

let random_points =
  lazy
    (let st = Random.State.make [| 11 |] in
     Array.init 120 (fun _ -> Array.init 8 (fun _ -> Random.State.float st 1.0)))

let quicksort_input =
  lazy
    (let st = Random.State.make [| 3 |] in
     Array.init 4000 (fun _ -> Random.State.int st 20001 - 10000))

let staged f = Staged.stage f

(* e1: search-space accounting — a full best-config n=3 synthesis. *)
let t_e1 =
  Test.make ~name:"e01 search-space (enum n=3 best)"
    (staged (fun () -> ignore (Search.run ~opts:Search.best cfg3)))

(* e2: trace collection overhead (Figure 1 machinery) on n=3. *)
let t_e2 =
  Test.make ~name:"e02 trace collection (n=3, every 50)"
    (staged (fun () ->
         ignore
           (Search.run
              ~opts:{ Search.best with Search.trace_every = Some 50 }
              cfg3)))

(* e3: tSNE embedding (Figure 2 machinery). *)
let t_e3 =
  Test.make ~name:"e03 tsne embed (120 pts, 60 iters)"
    (staged (fun () ->
         ignore
           (Tsne.embed
              ~opts:{ Tsne.default with Tsne.iterations = 60 }
              (Lazy.force random_points))))

(* e4: command-combination signatures over enumerated solutions. *)
let t_e4 =
  Test.make ~name:"e04 opcode signatures (300 solutions)"
    (staged (fun () ->
         ignore
           (List.sort_uniq compare
              (List.map Isa.Program.opcode_signature (Lazy.force solutions3)))))

(* e5: the headline — best-config synthesis for n=3 via A-star. *)
let t_e5 =
  Test.make ~name:"e05 headline enum n=3 (A* best)"
    (staged (fun () -> ignore (Search.run ~opts:Search.best cfg3)))

(* e6: SMT-CEGIS synthesis, n=2. *)
let t_e6 =
  Test.make ~name:"e06 smt-cegis n=2 len=4"
    (staged (fun () -> ignore (Smtlite.synth_cegis ~len:4 2)))

(* e7: CP synthesis n=2 and an ILP infeasibility proof. *)
let t_e7a =
  Test.make ~name:"e07a cp n=2 len=4"
    (staged (fun () -> ignore (Csp.Model.synth ~len:4 2)))

let t_e7b =
  Test.make ~name:"e07b ilp n=2 len=3 (infeasible)"
    (staged (fun () -> ignore (Ilp.Model.synth ~len:3 2)))

(* e8: CP heuristics off (the ablation's worst row shape). *)
let t_e8 =
  Test.make ~name:"e08 cp n=2 no heuristics"
    (staged (fun () ->
         ignore
           (Csp.Model.synth
              ~opts:
                {
                  Csp.Model.default with
                  Csp.Model.no_consecutive_cmp = false;
                  cmp_symmetry = false;
                }
              ~len:4 2)))

(* e9: all-solutions enumeration, n=2 (CP and enum agree on 8). *)
let t_e9 =
  Test.make ~name:"e09 cp all-solutions n=2"
    (staged (fun () -> ignore (Csp.Model.synth ~all_solutions:true ~len:4 2)))

(* e10: stochastic search (STOKE), small budget. *)
let t_e10 =
  Test.make ~name:"e10 stoke cold n=2 (50k iters)"
    (staged (fun () ->
         ignore
           (Stoke.cold
              ~opts:{ (Stoke.default 2) with Stoke.iterations = 50_000 }
              2)))

(* e11: planning, PDB-guided greedy n=3 (the configuration that succeeds). *)
let t_e11 =
  Test.make ~name:"e11 planner pdb-greedy n=3"
    (staged (fun () ->
         ignore
           (Planning.Planner.solve ~heuristic:Planning.Planner.Pdb
              ~strategy:Planning.Planner.Greedy ~max_expansions:500_000 3)))

(* e12: ablation representative — configuration (II). *)
let t_e12 =
  Test.make ~name:"e12 enum n=3 config (II)"
    (staged (fun () ->
         ignore
           (Search.run
              ~opts:{ Search.best with Search.cut = Search.No_cut }
              cfg3)))

(* e13: cut sweep representative — k = 1.5. *)
let t_e13 =
  Test.make ~name:"e13 enum n=3 cut 1.5"
    (staged (fun () ->
         ignore
           (Search.run
              ~opts:{ Search.best with Search.cut = Search.Mult 1.5 }
              cfg3)))

(* e14: standalone kernel benchmark machinery. *)
let t_e14 =
  Test.make ~name:"e14 standalone measure (4 kernels)"
    (staged (fun () ->
         ignore
           (Perf.Measure.standalone ~cases:200 ~iters:4
              [
                Perf.Compile.kernel ~name:"paper" cfg3 paper3;
                Perf.Baselines.swap 3;
                Perf.Baselines.branchless 3;
                Perf.Baselines.std 3;
              ])))

(* e15/e16: embedded sorts with a compiled kernel base case. *)
let t_e15 =
  Test.make ~name:"e15 quicksort 4k (paper kernel base)"
    (staged (fun () ->
         let a = Array.copy (Lazy.force quicksort_input) in
         Perf.Workload.quicksort ~base:(Perf.Compile.kernel ~name:"k" cfg3 paper3) a))

let t_e16 =
  Test.make ~name:"e16 mergesort 4k (paper kernel base)"
    (staged (fun () ->
         let a = Array.copy (Lazy.force quicksort_input) in
         Perf.Workload.mergesort ~base:(Perf.Compile.kernel ~name:"k" cfg3 paper3) a))

(* e17: n=4 quicksort with the 20-instruction network kernel. *)
let t_e17 =
  Test.make ~name:"e17 quicksort 4k (n=4 kernel base)"
    (staged (fun () ->
         let a = Array.copy (Lazy.force quicksort_input) in
         Perf.Workload.quicksort
           ~base:(Perf.Compile.kernel ~name:"k4" (Isa.Config.default 4) network4)
           a))

(* e18: n=5 kernel standalone execution. *)
let t_e18 =
  Test.make ~name:"e18 n=5 network kernel (800 runs)"
    (staged
       (let sorter = Perf.Compile.kernel ~name:"k5" (Isa.Config.default 5) network5 in
        let batch = Perf.Workload.random_batch ~seed:5 ~cases:800 ~width:5 ~lo:(-10000) ~hi:10000 in
        let work = Array.make (Array.length batch) 0 in
        fun () ->
          Array.blit batch 0 work 0 (Array.length batch);
          for c = 0 to 799 do
            sorter.Perf.Compile.run work (c * 5)
          done))

(* e19: exhaustive non-existence proof, n=2 length 3. *)
let t_e19 =
  Test.make ~name:"e19 prove-none n=2 len<=3"
    (staged (fun () ->
         ignore
           (Search.run_mode
              ~opts:{ Search.default with Search.engine = Search.Level_sync }
              ~mode:(Search.Prove_none 3) (Isa.Config.default 2))))

(* e20: min/max synthesis, n=3. *)
let t_e20 =
  Test.make ~name:"e20 minmax synth n=3"
    (staged (fun () -> ignore (Minmax.synthesize 3)))

(* e21: verify both Section 2.1 kernels. *)
let t_e21 =
  Test.make ~name:"e21 verify paper kernels"
    (staged (fun () ->
         assert (Machine.Exec.sorts_all_permutations cfg3 paper3);
         assert (Minmax.Vexec.sorts_all_permutations cfg3 Minmax.paper_sort3)))

let tests =
  Test.make_grouped ~name:"sortsynth"
    [
      t_e1; t_e2; t_e3; t_e4; t_e5; t_e6; t_e7a; t_e7b; t_e8; t_e9; t_e10;
      t_e11; t_e12; t_e13; t_e14; t_e15; t_e16; t_e17; t_e18; t_e19; t_e20;
      t_e21;
    ]

let benchmark () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:40 ~quota:(Time.second 1.5) ~kde:None ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  Analyze.merge ols instances results

(* ------------------------------------------------------------------ *)
(* Search fingerprint (BENCH_search.json).

   `--bench-search` runs each row below once and prints only what does not
   depend on the host: the search counters, the optimal length, the
   solution count and whether that length is proved minimal. The first
   line is the schema tag, then one JSON object per row, so a diff against
   the committed file names the row that drifted. `dune build
   @bench/bench-search` is that diff and `dune promote` accepts an
   intentional change. Timings go to stderr for information only; speed is
   judged by same-host A/B runs of perfbench's n4-level-iii workload.

   The level rows are the paper's configuration (III); n4-level-iii is its
   headline, the proved-optimal length-20 n = 4 kernel, and its counters
   do not depend on the number of domains. The n = 5 row is a bounded
   level sweep whose artifact is a lower bound ("no kernel of length <=
   4"), since a full n = 5 optimal search is a minutes-to-hours job
   (PAPER.md section 6). *)

let level_iii = { Search.best with Search.engine = Search.Level_sync }

let fingerprint_rows =
  let cfg = Isa.Config.default in
  [
    ("n3-best-astar", Search.best, fun opts -> Search.run ~opts (cfg 3));
    ("n3-level-iii", level_iii, fun opts -> Search.run ~opts (cfg 3));
    ("n4-best-astar", Search.best, fun opts -> Search.run ~opts (cfg 4));
    ( "n4-symcert-final",
      (* n4-best-astar with the symbolic certifier as the final-state
         acceptance check. It accepts unless the certifier refutes
         (Unknown defers to the packed probe, which is exact), so every
         final passes and the row must equal its twin. *)
      (let check p =
         match Analysis.Symcert.certify (cfg 4) p with
         | Analysis.Symcert.Refuted _ -> false
         | Analysis.Symcert.Proved | Analysis.Symcert.Unknown _ -> true
       in
       { Search.best with Search.final_check = Some check }),
      fun opts -> Search.run ~opts (cfg 4) );
    ( "n4-level-iii",
      level_iii,
      fun opts -> Search.run_parallel ~opts ~domains:2 (cfg 4) );
    ( "n5-bounded-level",
      (* Exhaust every program of length <= 4; only the optimality-safe
         erasure check prunes. *)
      {
        Search.default with
        Search.engine = Search.Level_sync;
        dist_viability = false;
        cut = Search.No_cut;
      },
      fun opts ->
        Search.run_mode ~opts ~mode:(Search.Prove_none 4) (cfg 5) );
  ]

(* The host-independent facts of one run, without the row's name. *)
let fingerprint (opts : Search.options) (r : Search.result) =
  let s = r.Search.stats in
  Jsonv.
    [
      ("expanded", Int s.Search.expanded);
      ("generated", Int s.Search.generated);
      ("deduped", Int s.Search.deduped);
      ("pruned_cut", Int s.Search.pruned_cut);
      ("pruned_viability", Int s.Search.pruned_viability);
      ("pruned_bound", Int s.Search.pruned_bound);
      ( "optimal_length",
        match r.Search.optimal_length with Some l -> Int l | None -> Null );
      ("solution_count", Int r.Search.solution_count);
      ( "proved_optimal",
        Bool
          (opts.Search.engine = Search.Level_sync
          && r.Search.optimal_length <> None) );
    ]

let bench_search () =
  let print_obj fields = print_endline (Jsonv.to_string (Jsonv.Obj fields)) in
  print_obj [ ("schema", Jsonv.Str "sortsynth-bench-search/v2") ];
  Printf.eprintf "%-18s %10s %12s %15s\n%!" "bench" "seconds" "generated"
    "states/sec";
  let rows =
    List.map
      (fun (name, opts, run) ->
        let r = run opts in
        let s = r.Search.stats in
        Printf.eprintf "%-18s %10.3f %12d %15.0f\n%!" name s.Search.elapsed
          s.Search.generated
          (float_of_int s.Search.generated /. Float.max s.Search.elapsed 1e-9);
        let facts = fingerprint opts r in
        print_obj (("bench", Jsonv.Str name) :: facts);
        (name, facts))
      fingerprint_rows
  in
  if List.assoc "n4-symcert-final" rows <> List.assoc "n4-best-astar" rows
  then begin
    prerr_endline
      "n4-symcert-final differs from n4-best-astar: the final check \
       rejected a final";
    exit 1
  end

(* --stats-json [FILE|-]: skip the Bechamel run and dump a machine-readable
   search-stats snapshot instead — one JSON object per representative
   engine run (A*, level-sync enumeration, parallel), self-validated
   before writing. This is the perf-trajectory hook: every CI run can
   archive the snapshot and diff counters across commits. *)
let stats_snapshot () =
  let runs =
    [
      ( "astar-best-n3",
        Search.run ~opts:{ Search.best with Search.trace_every = Some 100 } cfg3 );
      ( "level-sync-all-optimal-n3",
        let opts =
          { Search.best with Search.engine = Search.Level_sync; max_solutions = 5 }
        in
        Search.run_mode ~opts ~mode:Search.All_optimal cfg3 );
      ( "parallel-best-n3",
        Search.run_parallel ~opts:Search.best ~domains:2 cfg3 );
    ]
  in
  let json =
    Jsonv.to_string
      (Jsonv.Arr
         (List.map (fun (label, r) -> Search.Stats.to_json ~label r.Search.stats) runs))
    ^ "\n"
  in
  (match Jsonv.parse json with
  | Ok _ -> ()
  | Error e ->
      Printf.eprintf "stats snapshot is not well-formed JSON: %s\n" e;
      exit 1);
  json

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--bench-search" ] -> bench_search ()
  | [ "--stats-json" ] | [ "--stats-json"; "-" ] ->
      print_string (stats_snapshot ())
  | [ "--stats-json"; path ] when path <> "" && path.[0] <> '-' ->
      let json = stats_snapshot () in
      let oc = open_out path in
      output_string oc json;
      close_out oc;
      Printf.printf "wrote %s (%d bytes)\n" path (String.length json)
  | _ :: _ as args ->
      Printf.eprintf
        "unrecognised arguments: %s\n\
         usage: main.exe [--bench-search | --stats-json [FILE|-]] (no \
         argument: the Bechamel suite)\n"
        (String.concat " " args);
      exit 2
  | [] ->
  (* Force shared lazies outside the timed region. *)
  ignore (Lazy.force solutions3);
  ignore (Lazy.force random_points);
  ignore (Lazy.force quicksort_input);
  let results = benchmark () in
  let clock = Measure.label Instance.monotonic_clock in
  let tbl = Hashtbl.find results clock in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let est =
          match Analyze.OLS.estimates ols with
          | Some (e :: _) -> e
          | _ -> nan
        in
        (name, est) :: acc)
      tbl []
    |> List.sort compare
  in
  Printf.printf "%-45s %15s\n" "benchmark (one per table/figure)" "time per run";
  Printf.printf "%s\n" (String.make 62 '-');
  List.iter
    (fun (name, ns) ->
      let human =
        if Float.is_nan ns then "n/a"
        else if ns > 1e9 then Printf.sprintf "%8.2f s" (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
        else Printf.sprintf "%8.0f ns" ns
      in
      Printf.printf "%-45s %15s\n" name human)
    rows;
  print_newline ();
  print_endline
    "Full tables and figures: dune exec bin/experiments.exe (see EXPERIMENTS.md)"
