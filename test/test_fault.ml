(* Chaos suite: the fault-injection framework itself, plus the properties
   the ISSUE demands under injected failure — the registry never serves an
   uncertified kernel under any plan, a torn insert is invisible after
   recovery, and a batch with a crashed worker still answers every job in
   input order. *)

let check = Alcotest.check

let fresh_root =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.temp_dir "sortsynth-chaos" (string_of_int !counter)

(* Every test leaves the process with injection disabled, whatever
   happens — fault state is global to the binary. *)
let disarmed f () = Fun.protect ~finally:Fault.disarm f

let arm spec =
  match Fault.plan_of_string spec with
  | Ok p -> Fault.install p
  | Error m -> Alcotest.fail ("bad plan spec in test: " ^ m)

let key3 = Registry.Key.make 3
let synth3 () = (Registry.Scheduler.run_key key3).Registry.Scheduler.result

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* Replace the first occurrence of [needle] (which must be present). *)
let replace_first ~needle ~by hay =
  let nl = String.length needle and hl = String.length hay in
  let rec find i =
    if i + nl > hl then Alcotest.fail ("substring not found: " ^ needle)
    else if String.sub hay i nl = needle then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub hay 0 i ^ by ^ String.sub hay (i + nl) (hl - i - nl)

(* ------------------------------------------------------------------ *)
(* The framework.                                                      *)

let test_plan_parsing () =
  (match Fault.plan_of_string "seed=7;registry.rename=nth:2" with
  | Ok p ->
      check Alcotest.int "seed" 7 p.Fault.seed;
      assert (p.Fault.rules = [ (Fault.Registry_rename, Fault.Nth 2) ])
  | Error m -> Alcotest.fail m);
  (* Clauses may be newline-separated, blank, or comments. *)
  (match
     Fault.plan_of_string
       "# chaos\nseed=3\n\nscheduler.worker_crash=always\nclock.warp=-5.5"
   with
  | Ok p ->
      check Alcotest.int "seed" 3 p.Fault.seed;
      check (Alcotest.float 1e-9) "warp" (-5.5) p.Fault.warp;
      assert (p.Fault.rules = [ (Fault.Scheduler_worker_crash, Fault.Always) ])
  | Error m -> Alcotest.fail m);
  (* Round trip through the canonical form. *)
  (match
     Fault.plan_of_string
       "seed=42;search.alloc_budget=prob:0.25;registry.fsync=every:3"
   with
  | Ok p -> (
      match Fault.plan_of_string (Fault.plan_to_string p) with
      | Ok p' -> assert (p = p')
      | Error m -> Alcotest.fail ("round trip: " ^ m))
  | Error m -> Alcotest.fail m);
  (* Garbage is rejected, not ignored. *)
  List.iter
    (fun bad ->
      match Fault.plan_of_string bad with
      | Ok _ -> Alcotest.fail ("accepted: " ^ bad)
      | Error _ -> ())
    [
      "registry.nope=always";
      "registry.rename=sometimes";
      "registry.rename=nth:0";
      "registry.rename=prob:1.5";
      "seed=x";
      "no-equals-sign";
    ];
  (* Every site is nameable and round-trips. *)
  List.iter
    (fun s ->
      match Fault.site_of_name (Fault.site_name s) with
      | Ok s' -> assert (s = s')
      | Error m -> Alcotest.fail m)
    Fault.all_sites

let test_triggers () =
  (* Nth fires exactly once, on the chosen hit. *)
  arm "seed=1;registry.rename=nth:3";
  let fired =
    List.init 6 (fun _ -> Fault.fire Fault.Registry_rename)
  in
  assert (fired = [ false; false; true; false; false; false ]);
  check Alcotest.int "hits counted" 6 (Fault.hits Fault.Registry_rename);
  (* Every fires periodically. *)
  arm "seed=1;registry.fsync=every:2";
  let fired = List.init 6 (fun _ -> Fault.fire Fault.Registry_fsync) in
  assert (fired = [ false; true; false; true; false; true ]);
  (* Unlisted sites never fire, and firing one site does not advance
     another's counter. *)
  assert (not (Fault.fire Fault.Registry_rename));
  check Alcotest.int "independent counters" 1 (Fault.hits Fault.Registry_rename);
  (* Prob is deterministic in (seed, site, hit): the same plan replays
     the same firing sequence; a different seed gives a different one
     (with 40 draws, collision odds are astronomically small). *)
  let draws seed =
    arm (Printf.sprintf "seed=%d;search.alloc_budget=prob:0.5" seed);
    List.init 40 (fun _ -> Fault.fire Fault.Search_alloc_budget)
  in
  assert (draws 11 = draws 11);
  assert (draws 11 <> draws 12);
  (* Disarmed: nothing fires and hits stop counting. *)
  Fault.disarm ();
  assert (not (Fault.fire Fault.Registry_rename));
  assert (Fault.active () = None)

let test_clock_monotonic () =
  let t0 = Fault.Clock.now () in
  (* A negative warp simulates the wall clock stepping backwards; the
     monotonic clock must plateau, never rewind. *)
  Fault.Clock.warp (-3600.);
  let t1 = Fault.Clock.now () in
  assert (t1 >= t0);
  (* A positive warp larger than the step restores forward motion. *)
  Fault.Clock.warp 7200.;
  let t2 = Fault.Clock.now () in
  assert (t2 >= t1 +. 3500.);
  (* Deadlines built on the warped clock still fire. *)
  match
    Search.run ~deadline:(Fault.Clock.now () -. 1.) (Isa.Config.default 3)
  with
  | _ -> Alcotest.fail "expired deadline did not raise"
  | exception Search.Timeout -> ()

let test_sleep_for_warp_responsive () =
  (* A 30 s sleep on the warped clock must unblock almost immediately
     when a concurrent warp jumps time past the deadline — this is the
     property that makes backoff/drain loops built on [sleep_for]
     drivable from tests. Real elapsed time stays bounded by the warper
     delay plus one 50 ms re-read slice (with generous headroom). *)
  let t0 = Unix.gettimeofday () in
  let warper =
    Thread.create
      (fun () ->
        Thread.delay 0.1;
        Fault.Clock.warp 60.)
      ()
  in
  Fault.Clock.sleep_for 30.;
  Thread.join warper;
  let real = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "unblocked by warp (%.2fs real)" real)
    true (real < 5.);
  (* Non-positive durations return immediately. *)
  Fault.Clock.sleep_for 0.;
  Fault.Clock.sleep_for (-1.)

(* ------------------------------------------------------------------ *)
(* Search: typed exhaustion and injected deadline/budget.              *)

let test_resource_exhausted_typed () =
  List.iter
    (fun engine ->
      let opts = { Search.default with Search.engine; state_budget = Some 10 } in
      match Search.run ~opts (Isa.Config.default 3) with
      | _ -> Alcotest.fail "tiny budget did not exhaust"
      | exception Search.Resource_exhausted { live; budget } ->
          check (Alcotest.option Alcotest.int) "reported budget" (Some 10)
            budget;
          assert (live > 10))
    [ Search.Astar; Search.Level_sync ]

let test_injected_budget_and_deadline () =
  arm "seed=1;search.alloc_budget=nth:1";
  (match Search.run (Isa.Config.default 3) with
  | _ -> Alcotest.fail "alloc_budget site did not fire"
  | exception Search.Resource_exhausted _ -> ());
  (* The deadline site forces Timeout at a chosen expansion count even
     when no deadline is configured. *)
  arm "seed=1;search.deadline=nth:5";
  match Search.run (Isa.Config.default 3) with
  | _ -> Alcotest.fail "deadline site did not fire"
  | exception Search.Timeout -> ()

(* ------------------------------------------------------------------ *)
(* Degradation ladder.                                                 *)

let test_degradation_ladder () =
  (* A lenient base configuration: one injected exhaustion on the first
     budget check pushes run_key to rung 1, which then runs clean. *)
  let key =
    Registry.Key.make ~heuristic:Search.No_heuristic ~cut:Search.No_cut 3
  in
  arm "seed=1;search.alloc_budget=nth:1";
  let o = Registry.Scheduler.run_key key in
  assert o.Registry.Scheduler.degraded;
  check Alcotest.int "rung" 1 o.Registry.Scheduler.rung;
  (match o.Registry.Scheduler.result.Search.programs with
  | p :: _ -> (
      match Analysis.Certify.exact (Registry.Key.config key) p with
      | Ok () -> ()
      | Error m -> Alcotest.fail ("degraded kernel does not certify: " ^ m))
  | [] -> Alcotest.fail "ladder produced no kernel");
  Fault.disarm ();
  (* An undisturbed run is rung 0 and not degraded. *)
  let o = Registry.Scheduler.run_key key in
  assert (not o.Registry.Scheduler.degraded);
  check Alcotest.int "base rung" 0 o.Registry.Scheduler.rung;
  (* When the base options already sit at the most aggressive rung,
     there is nowhere left to degrade: exhaustion propagates, typed. *)
  arm "seed=1;search.alloc_budget=always";
  match Registry.Scheduler.run_key key3 with
  | _ -> Alcotest.fail "always-exhausted search returned"
  | exception Search.Resource_exhausted _ -> ()

let test_degraded_never_stored () =
  let root = fresh_root () in
  let r = synth3 () in
  (* Insert refuses the flag outright... *)
  (match Registry.Store.insert ~degraded:true ~root key3 r with
  | Ok _ -> Alcotest.fail "store accepted a degraded result"
  | Error _ -> ());
  check Alcotest.int "nothing stored" 0
    (List.length (Registry.Store.list_hashes ~root));
  (* ...and a tampered entry claiming degraded:true is quarantined on
     load rather than served. *)
  (match Registry.Store.insert ~root key3 r with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  let hash = Registry.Key.hash key3 in
  let meta = Filename.concat (Registry.Store.entry_dir ~root key3) "meta.json" in
  let ic = open_in_bin meta in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin meta in
  output_string oc
    (replace_first ~needle:"\"degraded\":false" ~by:"\"degraded\":true" src);
  close_out oc;
  (match Registry.Store.lookup ~root key3 with
  | Registry.Store.Quarantined reason ->
      assert
        (String.length reason > 0
        && Registry.Store.lookup ~root key3 = Registry.Store.Miss)
  | Registry.Store.Hit _ -> Alcotest.fail "served a degraded-flagged entry"
  | Registry.Store.Miss -> Alcotest.fail "tampered entry vanished");
  ignore hash

(* ------------------------------------------------------------------ *)
(* Registry chaos: never serve uncertified, recover torn inserts.      *)

let test_never_serve_uncertified () =
  let r = synth3 () in
  let plans =
    [
      "seed=1;registry.write_kernel=always";
      "seed=1;registry.write_meta=always";
      "seed=1;registry.rename=nth:1";
      "seed=1;registry.fsync=nth:1";
    ]
    @ List.init 5 (fun i ->
          Printf.sprintf
            "seed=%d;registry.write_kernel=prob:0.5;registry.write_meta=prob:0.5;registry.rename=prob:0.3;registry.fsync=prob:0.3"
            (100 + i))
  in
  List.iter
    (fun spec ->
      let root = fresh_root () in
      arm spec;
      (* Two insert attempts under fire, then lookups with injection
         still armed: whatever happened on disk, a Hit must certify. *)
      for _ = 1 to 2 do
        ignore (Registry.Store.insert ~root key3 r)
      done;
      let checked_lookup () =
        match Registry.Store.lookup ~root key3 with
        | Registry.Store.Hit e -> (
            match
              Analysis.Certify.exact (Registry.Key.config key3)
                e.Registry.Store.program
            with
            | Ok () -> assert (not e.Registry.Store.degraded)
            | Error m ->
                Alcotest.fail
                  (Printf.sprintf "plan %S served uncertified kernel: %s" spec m)
            )
        | Registry.Store.Miss | Registry.Store.Quarantined _ -> ()
      in
      checked_lookup ();
      checked_lookup ();
      (* After disarm + recovery the store is fully consistent: every
         surviving entry certifies, every torn dir is gone. *)
      Fault.disarm ();
      ignore (Registry.Store.recover ~root ());
      List.iter
        (fun h ->
          match Registry.Store.load_unverified ~root h with
          | Ok e -> (
              match
                Analysis.Certify.exact
                  (Registry.Key.config e.Registry.Store.key)
                  e.Registry.Store.program
              with
              | Ok () -> ()
              | Error m -> Alcotest.fail ("post-recovery bad entry: " ^ m))
          | Error m -> Alcotest.fail ("post-recovery unreadable entry: " ^ m))
        (Registry.Store.list_hashes ~root))
    plans

let test_torn_insert_invisible_after_recovery () =
  let root = fresh_root () in
  let r = synth3 () in
  arm "seed=1;registry.rename=nth:1";
  (match Registry.Store.insert ~root key3 r with
  | Ok _ -> Alcotest.fail "insert succeeded through an injected crash"
  | Error _ -> ());
  Fault.disarm ();
  (* The torn staging dir exists (inside the entry's shard, where inserts
     stage since the v2 layout) but is invisible to lookups. *)
  let store = Filename.concat root "store" in
  let torn_under dir =
    if Sys.file_exists dir && Sys.is_directory dir then
      Array.to_list (Sys.readdir dir)
      |> List.filter (String.starts_with ~prefix:".tmp-")
    else []
  in
  let torn =
    Array.to_list (Sys.readdir store)
    |> List.concat_map (fun n -> torn_under (Filename.concat store n))
    |> List.append (torn_under store)
  in
  check Alcotest.int "one torn staging dir" 1 (List.length torn);
  assert (Registry.Store.lookup ~root key3 = Registry.Store.Miss);
  (* Recovery rolls it back; a clean insert then works. *)
  let counters = Registry.Store.fresh_counters () in
  let rcv = Registry.Store.recover ~counters ~root () in
  check Alcotest.int "rolled back" 1 rcv.Registry.Store.rolled_back;
  check Alcotest.int "nothing requarantined" 0 rcv.Registry.Store.requarantined;
  check Alcotest.int "counter recorded" 1 counters.Registry.Store.recovered;
  assert (
    Array.to_list (Sys.readdir store)
    |> List.concat_map (fun n -> torn_under (Filename.concat store n))
    |> List.append (torn_under store)
    = []);
  (* Idempotent. *)
  let rcv = Registry.Store.recover ~root () in
  check Alcotest.int "second scan clean" 0 rcv.Registry.Store.rolled_back;
  (match Registry.Store.insert ~root key3 r with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  match Registry.Store.lookup ~root key3 with
  | Registry.Store.Hit _ -> ()
  | _ -> Alcotest.fail "clean insert after recovery not served"

let test_recovery_requarantines_halfwritten () =
  let r = synth3 () in
  List.iter
    (fun site ->
      let root = fresh_root () in
      arm (Printf.sprintf "seed=1;%s=nth:1" site);
      (* Silent torn-page corruption: the insert itself reports success. *)
      (match Registry.Store.insert ~root key3 r with
      | Ok _ -> ()
      | Error m -> Alcotest.fail ("corrupting insert should not fail: " ^ m));
      Fault.disarm ();
      let rcv = Registry.Store.recover ~root () in
      check Alcotest.int (site ^ ": requarantined") 1 rcv.Registry.Store.requarantined;
      check Alcotest.int (site ^ ": store empty after recovery") 0
        (List.length (Registry.Store.list_hashes ~root));
      assert (Registry.Store.quarantine_count ~root > 0);
      assert (Registry.Store.lookup ~root key3 = Registry.Store.Miss))
    [ "registry.write_kernel"; "registry.write_meta" ]

(* ------------------------------------------------------------------ *)
(* Scheduler chaos.                                                    *)

let batch_keys () =
  [
    Registry.Key.make 2;
    Registry.Key.make 3;
    Registry.Key.make ~heuristic:Search.No_heuristic 3;
  ]

let test_worker_crash_isolated () =
  let keys = batch_keys () in
  arm "seed=1;scheduler.worker_crash=nth:1";
  let b = Registry.Scheduler.run_batch ~workers:2 ~backoff:0. keys in
  Fault.disarm ();
  let results = b.Registry.Scheduler.results in
  check Alcotest.int "every job answered" (List.length keys)
    (List.length results);
  (* Input order is preserved even across the crash. *)
  List.iter2
    (fun k r -> assert (Registry.Key.equal k r.Registry.Scheduler.key))
    keys results;
  let crashed, rest =
    List.partition
      (fun r -> r.Registry.Scheduler.status = Registry.Scheduler.Crashed)
      results
  in
  check Alcotest.int "exactly one job crashed" 1 (List.length crashed);
  List.iter
    (fun r ->
      assert (r.Registry.Scheduler.status = Registry.Scheduler.Synthesized);
      assert (r.Registry.Scheduler.program <> None))
    rest

let test_all_workers_crash_still_returns () =
  let keys = batch_keys () in
  arm "seed=1;scheduler.worker_crash=always";
  let b = Registry.Scheduler.run_batch ~workers:2 ~backoff:0. keys in
  Fault.disarm ();
  check Alcotest.int "every job answered" (List.length keys)
    (List.length b.Registry.Scheduler.results);
  List.iter
    (fun r ->
      assert (r.Registry.Scheduler.status = Registry.Scheduler.Crashed);
      assert (r.Registry.Scheduler.attempt_log <> []))
    b.Registry.Scheduler.results

let test_job_exception_retry_and_backoff () =
  (* One spurious exception: the retry succeeds and the failure is on
     record. *)
  arm "seed=1;scheduler.job_exception=nth:1";
  let b =
    Registry.Scheduler.run_batch ~workers:1 ~retries:1 ~backoff:0.001
      [ Registry.Key.make 2 ]
  in
  Fault.disarm ();
  (match b.Registry.Scheduler.results with
  | [ r ] ->
      assert (r.Registry.Scheduler.status = Registry.Scheduler.Synthesized);
      check Alcotest.int "two attempts" 2 r.Registry.Scheduler.attempts;
      (match r.Registry.Scheduler.attempt_log with
      | [ a ] ->
          check Alcotest.int "failed attempt number" 1 a.Registry.Scheduler.n;
          assert (a.Registry.Scheduler.backoff > 0.)
      | l -> Alcotest.fail (Printf.sprintf "%d log entries" (List.length l)))
  | _ -> Alcotest.fail "wrong result count");
  (* Persistent failure: the backoff schedule is deterministic — two
     identical runs record identical delays. *)
  let schedule () =
    arm "seed=1;scheduler.job_exception=always";
    let b =
      Registry.Scheduler.run_batch ~workers:1 ~retries:2 ~backoff:0.001
        [ Registry.Key.make 2 ]
    in
    Fault.disarm ();
    match b.Registry.Scheduler.results with
    | [ r ] ->
        assert (
          match r.Registry.Scheduler.status with
          | Registry.Scheduler.Failed _ -> true
          | _ -> false);
        check Alcotest.int "three attempts" 3 r.Registry.Scheduler.attempts;
        List.map (fun a -> a.Registry.Scheduler.backoff) r.Registry.Scheduler.attempt_log
    | _ -> Alcotest.fail "wrong result count"
  in
  let s1 = schedule () and s2 = schedule () in
  check Alcotest.int "log covers every attempt" 3 (List.length s1);
  assert (s1 = s2);
  (* The last attempt does not sleep. *)
  assert (List.nth s1 2 = 0.);
  (* Exponential shape: second delay is twice the first (same jitter
     would differ, but the ratio bound holds: delay2/delay1 within
     [2*0.5/1.5, 2*1.5/0.5]). *)
  let d1 = List.nth s1 0 and d2 = List.nth s1 1 in
  assert (d1 > 0. && d2 > 0.);
  assert (d2 /. d1 > 2. /. 3. && d2 /. d1 < 6.)

let test_batch_exhausted_status () =
  arm "seed=1;search.alloc_budget=always";
  let b =
    Registry.Scheduler.run_batch ~workers:1 ~retries:0 ~backoff:0.
      [ key3 ]
  in
  Fault.disarm ();
  match b.Registry.Scheduler.results with
  | [ r ] -> (
      match r.Registry.Scheduler.status with
      | Registry.Scheduler.Exhausted { live; budget } ->
          (* The fault site fired with no state_budget configured: the
             report must say so instead of leaking a sentinel budget. *)
          assert (live >= 0);
          check (Alcotest.option Alcotest.int) "no budget configured" None
            budget;
          assert (r.Registry.Scheduler.attempt_log <> [])
      | s ->
          Alcotest.fail
            ("expected Exhausted, got " ^ Registry.Scheduler.status_string s))
  | _ -> Alcotest.fail "wrong result count"

let test_run_batch_recovers_at_open () =
  let root = fresh_root () in
  let r = synth3 () in
  arm "seed=1;registry.rename=nth:1";
  (match Registry.Store.insert ~root key3 r with
  | Ok _ -> Alcotest.fail "insert succeeded through an injected crash"
  | Error _ -> ());
  Fault.disarm ();
  let b = Registry.Scheduler.run_batch ~root ~workers:1 ~backoff:0. [ key3 ] in
  check Alcotest.int "torn dir recovered at open" 1
    b.Registry.Scheduler.counters.Registry.Store.recovered;
  (match b.Registry.Scheduler.results with
  | [ jr ] ->
      assert (jr.Registry.Scheduler.status = Registry.Scheduler.Synthesized)
  | _ -> Alcotest.fail "wrong result count");
  check Alcotest.int "reinserted" 1
    b.Registry.Scheduler.counters.Registry.Store.inserted;
  (* JSON snapshot carries the robustness fields and stays valid. *)
  let json = Registry.Scheduler.batch_json b in
  (match Jsonv.parse json with
  | Ok _ -> ()
  | Error m -> Alcotest.fail ("batch json invalid: " ^ m));
  List.iter
    (fun needle ->
      if not (contains ~needle json) then
        Alcotest.fail ("batch json missing " ^ needle))
    [ "\"degraded\""; "\"rung\""; "\"attempt_log\""; "\"recovered\":1" ]

let () =
  Alcotest.run "fault"
    [
      ( "framework",
        [
          Alcotest.test_case "plan parsing" `Quick (disarmed test_plan_parsing);
          Alcotest.test_case "triggers" `Quick (disarmed test_triggers);
          Alcotest.test_case "monotonic clock" `Quick
            (disarmed test_clock_monotonic);
          Alcotest.test_case "sleep_for unblocks on warp" `Quick
            (disarmed test_sleep_for_warp_responsive);
        ] );
      ( "search",
        [
          Alcotest.test_case "typed exhaustion" `Quick
            (disarmed test_resource_exhausted_typed);
          Alcotest.test_case "injected budget and deadline" `Quick
            (disarmed test_injected_budget_and_deadline);
        ] );
      ( "degradation",
        [
          Alcotest.test_case "ladder" `Quick (disarmed test_degradation_ladder);
          Alcotest.test_case "degraded never stored" `Quick
            (disarmed test_degraded_never_stored);
        ] );
      ( "registry-chaos",
        [
          Alcotest.test_case "never serve uncertified" `Quick
            (disarmed test_never_serve_uncertified);
          Alcotest.test_case "torn insert invisible after recovery" `Quick
            (disarmed test_torn_insert_invisible_after_recovery);
          Alcotest.test_case "half-written entries requarantined" `Quick
            (disarmed test_recovery_requarantines_halfwritten);
        ] );
      ( "scheduler-chaos",
        [
          Alcotest.test_case "worker crash isolated" `Quick
            (disarmed test_worker_crash_isolated);
          Alcotest.test_case "all workers crash, batch still returns" `Quick
            (disarmed test_all_workers_crash_still_returns);
          Alcotest.test_case "job exception retry and backoff" `Quick
            (disarmed test_job_exception_retry_and_backoff);
          Alcotest.test_case "batch exhausted status" `Quick
            (disarmed test_batch_exhausted_status);
          Alcotest.test_case "run_batch recovers at open" `Quick
            (disarmed test_run_batch_recovers_at_open);
        ] );
    ]
