(* n4-level-iii: the paper's headline search. n=4, m=1, configuration
   (III) (perm-count guidance, optimal-action filter, cut k=1) on the
   level-synchronous engine, find-first, over 2 domains. *)

let cfg = Isa.Config.make ~n:4 ~m:1
let opts = { Search.best with engine = Search.Level_sync }
let synth () = Search.run_parallel ~opts ~domains:2 ~mode:Search.Find_first cfg

let timed f =
  let t0 = Fault.Clock.now () in
  let v = f () in
  (Fault.Clock.now () -. t0, v)

(* Distance builds timed before each search, so the set-up samples are
   spread over the whole run. *)
let builds_per_search = 3

let steal_note what ms =
  let t = Array.fold_left (fun a (dt, _) -> a +. dt) 0. ms
  and s = Array.fold_left (fun a (_, st) -> a + st) 0 ms in
  Printf.sprintf "host steal during %s: %.1f%%; %d of %d kept as quiet" what
    (100. *. Stat.steal_share ~seconds:t s)
    (Array.length (Stat.quiet_times ms))
    (Array.length ms)

(* Untraced: the search repeated until [seconds] have passed, at least
   twice, with [builds_per_search] distance builds (the set-up) before
   each. Times are taken from the quiet repetitions ({!Stat.quiet}). *)
let measure ~seconds =
  ignore (Distance.compute_cached cfg);
  let builds = ref [] in
  let start = Fault.Clock.now () in
  (* The peak after the first search is what one synthesis in a fresh
     process costs; later searches only add heap-layout luck. *)
  let rss = ref 0. in
  let rec go runs errors failed =
    if List.length runs >= 2 && Fault.Clock.now () -. start >= seconds then
      (Array.of_list (List.rev runs), errors, failed)
    else begin
      for _ = 1 to builds_per_search do
        Gc.full_major ();
        builds := snd (Stat.timed_steal (fun () -> Distance.compute cfg)) :: !builds
      done;
      (* Each search starts from a collected heap, as in a fresh process. *)
      Gc.full_major ();
      let r, m = Stat.timed_steal synth in
      let e = Checks.search cfg Checks.n4_pins r in
      if runs = [] then rss := Stat.peak_rss_mb "self";
      go (m :: runs) (errors @ e) (if e = [] then failed else failed + 1)
    end
  in
  let runs, errors, failed = go [] [] 0 in
  let builds = Array.of_list (List.rev !builds) in
  let times = Stat.quiet_times runs in
  let n = Array.length times in
  {
    Report.attempted = Array.length runs;
    failed;
    errors;
    notes =
      [
        steal_note "the distance builds" builds;
        steal_note "the searches" runs;
        "search seconds, all: "
        ^ String.concat " " (Array.to_list (Array.map (fun (t, _) -> Printf.sprintf "%.3f" t) runs));
      ];
    metrics =
      Report.
        [
          m ~samples:n "synth_s" (Stat.mean times);
          m ~samples:(Array.length (Stat.quiet_times builds)) "setup_s"
            (Stat.median (Stat.quiet_times builds));
          m "peak_rss_mb" !rss;
          m ~samples:n "throughput_rps" (float n /. Array.fold_left ( +. ) 0. times);
          m ~samples:n "p50_ms" (Stat.median times *. 1e3);
          m ~samples:n "p99_ms" (Stat.percentile times 0.99 *. 1e3);
        ];
  }

let sum_levels f (r : Search.result) =
  List.fold_left (fun acc l -> acc + f l) 0 r.Search.stats.Search.levels

(* Counts and ratios of a set of search results (exact, no timing). *)
let search_counts ~seconds (rs : Search.result list) =
  let tot f = float (List.fold_left (fun acc r -> acc + f r.Search.stats) 0 rs) in
  let kept = float (List.fold_left (fun acc r -> acc + sum_levels (fun l -> l.Search.succs_kept) r) 0 rs) in
  let generated = tot (fun s -> s.Search.generated) and deduped = tot (fun s -> s.Search.deduped) in
  let n = List.length rs in
  Report.
    [
      m ~samples:n "search.expanded" (tot (fun s -> s.Search.expanded));
      m ~samples:n "search.generated" generated;
      m ~samples:n "search.deduped" deduped;
      m ~samples:n "search.pruned_cut" (tot (fun s -> s.Search.pruned_cut));
      m ~samples:n "search.pruned_viability" (tot (fun s -> s.Search.pruned_viability));
      m ~samples:n "search.max_open"
        (float (List.fold_left (fun acc r -> max acc r.Search.stats.Search.max_open) 0 rs));
      m ~samples:n "search.kept_ratio" (kept /. Float.max 1. generated);
      m ~samples:n "search.dedup_ratio" (deduped /. Float.max 1. kept);
      m ~samples:n "search.states_per_s" (generated /. Float.max 1e-9 seconds);
    ]

(* Traced: spans around each call; the one-domain search gives the
   sequential time and the GC deltas, and the parallel search runs once
   untraced and once traced for the tracing overhead. *)
let measure_traced () =
  Spans.enable ();
  Spans.span "phase.n4" (fun root ->
      let sp name f = Spans.span ~parent:root name (fun _ -> f ()) in
      let build_s, _ = timed (fun () -> sp "distance.compute" (fun () -> Distance.compute cfg)) in
      ignore (Distance.compute_cached cfg);
      Gc.full_major ();
      let g0 = Gc.quick_stat () in
      let seq_s, rs =
        timed (fun () -> sp "search.run_mode" (fun () -> Search.run_mode ~opts ~mode:Search.Find_first cfg))
      in
      let g1 = Gc.quick_stat () in
      Gc.full_major ();
      Spans.on := false;
      let plain_s, rq = timed synth in
      Spans.on := true;
      Gc.full_major ();
      let traced_s, rp = timed (fun () -> sp "search.run_parallel" synth) in
      (* The one-domain engine may generate more on the last level, so
         only its kernel and length are pinned. *)
      let checked =
        [
          Checks.search cfg Checks.n4_pins rp;
          Checks.search cfg Checks.n4_pins rq;
          (match rs.Search.programs with
          | p :: _ ->
              Checks.kernel cfg ~expected_len:Checks.n4_pins.length (Isa.Program.to_string cfg p)
          | [] -> [ "the one-domain search found no kernel" ]);
        ]
      in
      let errors = List.concat checked in
      let certify name f =
        match rp.Search.programs with
        | [] -> Report.m ~samples:0 ("certify." ^ name ^ "_us") 0.
        | p :: _ ->
            let t = Stat.time_reps 50 (fun () -> sp ("certify." ^ name) (fun () -> f cfg p)) in
            Report.m ~samples:50 ("certify." ^ name ^ "_us") (Stat.median t *. 1e6)
      in
      let mw w = w /. 1e6 in
      let metrics =
        Report.
          [
            m "distance.build_s" build_s;
            m "search.seq_s" seq_s;
            m "search.par_speedup" (seq_s /. plain_s);
            m "gc.minor_mwords" (mw (g1.Gc.minor_words -. g0.Gc.minor_words));
            m "gc.promoted_mwords" (mw (g1.Gc.promoted_words -. g0.Gc.promoted_words));
            m "gc.major_collections" (float (g1.Gc.major_collections - g0.Gc.major_collections));
            m "gc.top_heap_mb"
              (float (g1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.);
            certify "symbolic" Registry.Verify.certify_fast;
            certify "exact" Registry.Verify.certify;
            m "trace.overhead_ms" ((traced_s -. plain_s) *. 1e3);
          ]
        @ search_counts ~seconds:plain_s [ rp ]
        @ Report.absent [ "store"; "scheduler"; "protocol"; "server"; "serve"; "registry" ]
      in
      {
        Report.attempted = List.length checked;
        failed = List.length (List.filter (( <> ) []) checked);
        errors;
        notes = [];
        metrics;
      })
