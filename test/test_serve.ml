let check = Alcotest.check

let fresh_root =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.temp_dir "sortsynth-serve" (string_of_int !counter)

let key2 = Registry.Key.make 2
let key3 = Registry.Key.make 3
let key4 = Registry.Key.make 4

(* A real certified entry to populate caches with: synthesize once and
   insert, then read it back. *)
let make_entry root key =
  let outcome = Registry.Scheduler.run_key key in
  match Registry.Store.insert ~root key outcome.Registry.Scheduler.result with
  | Ok e -> e
  | Error msg -> Alcotest.fail ("insert: " ^ msg)

let default_config root socket =
  {
    Serve.Server.socket_path = socket;
    root;
    capacity = 8;
    workers = 2;
    max_conns = 64;
    max_queue = 32;
    breaker_threshold = 3;
    breaker_cooldown = 5.0;
    drain_grace = 5.0;
  }

let synth_req key = Serve.Protocol.Synth (key, Serve.Protocol.default_params)

let served_exn = function
  | Serve.Protocol.Served s -> s
  | _ -> Alcotest.fail "expected a served response"

let serve_counter snapshot name =
  match
    Option.bind
      (Jsonv.member "serve" snapshot)
      (Jsonv.member name)
  with
  | Some (Jsonv.Int n) -> n
  | _ -> Alcotest.fail ("stats: missing serve counter " ^ name)

(* Walk a path of object members down the stats snapshot to an int. *)
let serve_nested snapshot path =
  let rec go j = function
    | [] -> (
        match j with
        | Jsonv.Int n -> n
        | _ -> Alcotest.fail ("stats: not an int at " ^ String.concat "." path))
    | name :: rest -> (
        match Jsonv.member name j with
        | Some v -> go v rest
        | None ->
            Alcotest.fail
              ("stats: missing " ^ name ^ " in " ^ String.concat "." path))
  in
  go snapshot path

let install_plan spec =
  match Fault.plan_of_string spec with
  | Ok plan -> Fault.install plan
  | Error msg -> Alcotest.fail msg

(* ------------------------------------------------------------------ *)
(* LRU.                                                                *)

let test_lru_basics () =
  let root = fresh_root () in
  let e = make_entry root key2 in
  let l = Serve.Lru.create ~capacity:2 in
  check Alcotest.(option reject) "empty miss" None
    (Option.map ignore (Serve.Lru.find l "a"));
  Serve.Lru.add l "a" e;
  Serve.Lru.add l "b" e;
  check Alcotest.(list string) "mru order" [ "b"; "a" ] (Serve.Lru.contents l);
  (* A hit bumps the entry to most-recent. *)
  assert (Serve.Lru.find l "a" <> None);
  check Alcotest.(list string) "bumped" [ "a"; "b" ] (Serve.Lru.contents l);
  (* Adding past capacity evicts the least-recent ("b"), not "a". *)
  Serve.Lru.add l "c" e;
  check Alcotest.(list string) "evicted lru" [ "c"; "a" ] (Serve.Lru.contents l);
  check Alcotest.bool "b gone" true (Serve.Lru.find l "b" = None);
  let s = Serve.Lru.stats l in
  check Alcotest.int "evictions" 1 s.Serve.Lru.evictions;
  check Alcotest.int "hits" 1 s.Serve.Lru.hits;
  (* 1 empty probe + 1 post-eviction probe. *)
  check Alcotest.int "misses" 2 s.Serve.Lru.misses;
  (* Re-adding an existing key replaces in place, no eviction. *)
  Serve.Lru.add l "a" e;
  check Alcotest.int "still 2" 2 (Serve.Lru.length l);
  check Alcotest.int "no new eviction" 1 (Serve.Lru.stats l).Serve.Lru.evictions

let test_lru_capacity_zero () =
  let root = fresh_root () in
  let e = make_entry root key2 in
  let l = Serve.Lru.create ~capacity:0 in
  Serve.Lru.add l "a" e;
  check Alcotest.int "disabled cache stays empty" 0 (Serve.Lru.length l);
  check Alcotest.bool "no hit" true (Serve.Lru.find l "a" = None)

(* Certified-at-admission, observable end to end: the first lookup loads
   from disk (one n! certification), the warm repeat must touch neither a
   directory nor the certifier. *)
let test_lru_certified_at_admission () =
  let root = fresh_root () in
  let _ = make_entry root key2 in
  let srv = Serve.Server.create (default_config root "unused.sock") in
  Fun.protect ~finally:(fun () -> Serve.Server.destroy srv) @@ fun () ->
  let cold = served_exn (Serve.Server.handle srv (Serve.Protocol.Lookup key2)) in
  check Alcotest.string "cold from disk" "disk"
    (Option.value ~default:"?" cold.Serve.Protocol.source);
  let readdir0 = Registry.Store.readdir_calls () in
  let certs0 = Analysis.Certify.certifications () in
  let warm = served_exn (Serve.Server.handle srv (Serve.Protocol.Lookup key2)) in
  check Alcotest.string "warm from memory" "memory"
    (Option.value ~default:"?" warm.Serve.Protocol.source);
  check Alcotest.int "zero directory scans on a warm hit" 0
    (Registry.Store.readdir_calls () - readdir0);
  check Alcotest.int "zero re-certifications on a warm hit" 0
    (Analysis.Certify.certifications () - certs0);
  check
    Alcotest.(option string)
    "same kernel text" cold.Serve.Protocol.kernel warm.Serve.Protocol.kernel

(* ------------------------------------------------------------------ *)
(* Protocol round-trips.                                               *)

let test_protocol_roundtrip () =
  let reqs =
    [
      Serve.Protocol.Lookup key3;
      Serve.Protocol.Synth
        ( key4,
          {
            Serve.Protocol.timeout = Some 1.5;
            budget = Some 10_000;
            retries = 2;
            backoff = 0.1;
            optimize = true;
            (* Epoch-seconds scale on purpose: 10 integer digits once
               overflowed the float printer's precision and rounded
               propagated deadlines by up to 5 s on the wire. *)
            deadline = Some 1754640123.4567;
          } );
      Serve.Protocol.Batch ([ key2; key3 ], Serve.Protocol.default_params);
      Serve.Protocol.Stats;
      Serve.Protocol.Shutdown;
    ]
  in
  List.iter
    (fun req ->
      let line = Serve.Protocol.request_line req in
      match Serve.Protocol.parse_request (String.trim line) with
      | Error msg -> Alcotest.fail msg
      | Ok req' ->
          check Alcotest.string "request roundtrip"
            (Jsonv.to_string (Serve.Protocol.request_to_json req))
            (Jsonv.to_string (Serve.Protocol.request_to_json req')))
    reqs;
  (* Re-print stability above cannot see a lossy printer (both sides
     round identically); the deadline must come back bit-exact. *)
  (match
     Serve.Protocol.parse_request
       (String.trim (Serve.Protocol.request_line (List.nth reqs 1)))
   with
  | Ok (Serve.Protocol.Synth (_, p)) ->
      check
        Alcotest.(option (float 0.))
        "deadline survives the wire bit-exactly"
        (Some 1754640123.4567) p.Serve.Protocol.deadline
  | _ -> Alcotest.fail "expected the synth request to parse back");
  let served =
    {
      Serve.Protocol.status = "synthesized";
      source = Some "search";
      canonical = Registry.Key.canonical key3;
      kernel = Some "cmp r1 r2\n";
      length = Some 1;
      degraded = false;
      rung = 0;
      attempts = 2;
      elapsed = 0.25;
      coalesced = true;
      error = None;
      retry_after = None;
    }
  in
  let shed =
    {
      served with
      Serve.Protocol.status = "circuit_open";
      source = None;
      kernel = None;
      length = None;
      error = Some "circuit breaker open";
      retry_after = Some 4.5;
    }
  in
  List.iter
    (fun resp ->
      let line = Serve.Protocol.response_line resp in
      match Serve.Protocol.parse_response (String.trim line) with
      | Error msg -> Alcotest.fail msg
      | Ok resp' ->
          check Alcotest.string "response roundtrip"
            (Jsonv.to_string (Serve.Protocol.response_to_json resp))
            (Jsonv.to_string (Serve.Protocol.response_to_json resp')))
    [
      Serve.Protocol.Served served;
      Serve.Protocol.Served shed;
      Serve.Protocol.Jobs [ served; { served with Serve.Protocol.coalesced = false } ];
      Serve.Protocol.Goodbye;
      Serve.Protocol.Refused "bad request: no op";
      Serve.Protocol.Overloaded 0.25;
    ]

(* ------------------------------------------------------------------ *)
(* Pool.                                                               *)

let test_pool_runs_and_survives_exceptions () =
  let pool = Serve.Pool.create ~workers:2 () in
  Fun.protect ~finally:(fun () -> Serve.Pool.shutdown pool) @@ fun () ->
  (match Serve.Pool.run pool (fun () -> 6 * 7) with
  | Ok v -> check Alcotest.int "result" 42 v
  | Error e -> Alcotest.fail (Printexc.to_string e));
  (match Serve.Pool.run pool (fun () -> failwith "boom") with
  | Error (Failure msg) -> check Alcotest.string "exn carried" "boom" msg
  | Error e -> Alcotest.fail ("wrong exn: " ^ Printexc.to_string e)
  | Ok _ -> Alcotest.fail "exception swallowed");
  (* The worker that ran the failing job is still alive. *)
  match Serve.Pool.run pool (fun () -> 1) with
  | Ok 1 -> ()
  | _ -> Alcotest.fail "pool died with the job"

let test_pool_worker_death_isolated () =
  install_plan "seed=7;serve.worker_death=nth:1";
  Fun.protect ~finally:Fault.disarm @@ fun () ->
  let pool = Serve.Pool.create ~workers:1 () in
  Fun.protect ~finally:(fun () -> Serve.Pool.shutdown pool) @@ fun () ->
  (match Serve.Pool.run pool (fun () -> 1) with
  | Error Serve.Pool.Worker_died -> ()
  | Ok _ -> Alcotest.fail "death site did not fire"
  | Error e -> Alcotest.fail (Printexc.to_string e));
  check Alcotest.int "death counted" 1 (Serve.Pool.worker_deaths pool);
  (* nth:1 fired once; the single worker keeps serving afterwards. *)
  match Serve.Pool.run pool (fun () -> 2) with
  | Ok 2 -> ()
  | _ -> Alcotest.fail "pool did not survive the worker death"

(* Admission: with one worker wedged on a gate and a 1-slot queue, a
   third submission must be refused immediately with Queue_full — bounded
   waiting, never an unbounded backlog. *)
let test_pool_bounded_queue () =
  let pool = Serve.Pool.create ~max_queue:1 ~workers:1 () in
  Fun.protect ~finally:(fun () -> Serve.Pool.shutdown pool) @@ fun () ->
  let gate = Mutex.create () in
  Mutex.lock gate;
  let started = Atomic.make false in
  let r1 = ref (Ok 0) in
  let t1 =
    Thread.create
      (fun () ->
        r1 :=
          Serve.Pool.run pool (fun () ->
              Atomic.set started true;
              Mutex.lock gate;
              Mutex.unlock gate;
              1))
      ()
  in
  (* Wait until the only worker has claimed (and is wedged on) job 1. *)
  while not (Atomic.get started) do
    Thread.yield ()
  done;
  let r2 = ref (Ok 0) in
  let t2 =
    Thread.create (fun () -> r2 := Serve.Pool.run pool (fun () -> 2)) ()
  in
  (* Job 2 fills the single queue slot... *)
  while Serve.Pool.queued pool < 1 do
    Thread.yield ()
  done;
  (* ...so job 3 is shed at submission, before anything blocks. *)
  (match Serve.Pool.run pool (fun () -> 3) with
  | Error Serve.Pool.Queue_full -> ()
  | Ok _ -> Alcotest.fail "queue bound not enforced"
  | Error e -> Alcotest.fail (Printexc.to_string e));
  Mutex.unlock gate;
  Thread.join t1;
  Thread.join t2;
  check Alcotest.bool "wedged job completed" true (!r1 = Ok 1);
  check Alcotest.bool "queued job completed" true (!r2 = Ok 2);
  check Alcotest.int "queue high-water mark" 1 (Serve.Pool.queue_hwm pool)

(* Deadline propagation: the queue_stall site warps the clock at claim
   time, so a job with a propagated deadline is shed as expired-in-queue
   and its closure never runs. No sleeps anywhere. *)
let test_pool_queue_stall_sheds_expired () =
  install_plan "seed=2;serve.queue_stall=nth:1";
  Fun.protect ~finally:Fault.disarm @@ fun () ->
  let pool = Serve.Pool.create ~workers:1 () in
  Fun.protect ~finally:(fun () -> Serve.Pool.shutdown pool) @@ fun () ->
  let ran = ref false in
  let deadline = Fault.Clock.now () +. (Serve.Pool.queue_stall_warp /. 2.) in
  (match Serve.Pool.run ~deadline pool (fun () -> ran := true) with
  | Error Serve.Pool.Expired_in_queue -> ()
  | Ok _ -> Alcotest.fail "stalled job was not shed"
  | Error e -> Alcotest.fail (Printexc.to_string e));
  check Alcotest.bool "expired closure never ran" false !ran;
  (* A fresh deadline (or none) serves normally after the stall. *)
  match Serve.Pool.run pool (fun () -> 7) with
  | Ok 7 -> ()
  | _ -> Alcotest.fail "pool did not keep serving after the stall"

(* ------------------------------------------------------------------ *)
(* Breaker: the full state machine on the warped clock.                *)

let test_breaker_state_machine () =
  let b = Serve.Breaker.create ~threshold:2 ~cooldown:10.0 in
  let k = "n=9" in
  let admit () = Serve.Breaker.admit b k in
  (match admit () with
  | Serve.Breaker.Allow -> ()
  | Serve.Breaker.Reject _ -> Alcotest.fail "closed breaker rejected");
  Serve.Breaker.failure b k;
  (match admit () with
  | Serve.Breaker.Allow -> ()
  | Serve.Breaker.Reject _ -> Alcotest.fail "tripped below threshold");
  Serve.Breaker.failure b k;
  (* Threshold reached: open, fast-fail with a positive hint. *)
  (match admit () with
  | Serve.Breaker.Reject r ->
      check Alcotest.bool "positive retry hint" true (r > 0.)
  | Serve.Breaker.Allow -> Alcotest.fail "open breaker admitted");
  check
    Alcotest.(list (triple string string int))
    "tracked as open"
    [ (k, "open", 2) ]
    (Serve.Breaker.tracked b);
  (* Cooldown elapses on the warped clock: one half-open probe. *)
  Fault.Clock.warp 11.0;
  (match admit () with
  | Serve.Breaker.Allow -> ()
  | Serve.Breaker.Reject _ -> Alcotest.fail "no half-open probe");
  (match admit () with
  | Serve.Breaker.Reject _ -> ()
  | Serve.Breaker.Allow -> Alcotest.fail "half-open admitted two probes");
  (* Probe fails: re-trip immediately. *)
  Serve.Breaker.failure b k;
  (match admit () with
  | Serve.Breaker.Reject _ -> ()
  | Serve.Breaker.Allow -> Alcotest.fail "failed probe did not re-trip");
  Fault.Clock.warp 11.0;
  (match admit () with
  | Serve.Breaker.Allow -> ()
  | Serve.Breaker.Reject _ -> Alcotest.fail "no second probe");
  (* Probe succeeds: recovery, key forgotten. *)
  Serve.Breaker.success b k;
  (match admit () with
  | Serve.Breaker.Allow -> ()
  | Serve.Breaker.Reject _ -> Alcotest.fail "recovered key still gated");
  check
    Alcotest.(list (triple string string int))
    "forgotten after recovery" [] (Serve.Breaker.tracked b);
  let c = Serve.Breaker.counters b in
  check Alcotest.int "trips" 2 c.Serve.Breaker.trips;
  check Alcotest.int "half_opens" 2 c.Serve.Breaker.half_opens;
  check Alcotest.int "recoveries" 1 c.Serve.Breaker.recoveries;
  check Alcotest.int "rejections" 3 c.Serve.Breaker.rejections

(* Regression: a half-open probe that exits without a verdict — shed at
   the queue, expired while queued, drained, or lost to an unrelated
   error — must not leave the key Half_open forever. [abort] returns it
   to Open with a fresh cooldown, after which a new probe is admitted. *)
let test_breaker_abort_releases_probe () =
  let b = Serve.Breaker.create ~threshold:1 ~cooldown:10.0 in
  let k = "n=5" in
  Serve.Breaker.failure b k;
  Fault.Clock.warp 11.0;
  (match Serve.Breaker.admit b k with
  | Serve.Breaker.Allow -> ()
  | Serve.Breaker.Reject _ -> Alcotest.fail "no half-open probe");
  (* The probe vanishes without success or failure. *)
  Serve.Breaker.abort b k;
  check
    Alcotest.(list (triple string string int))
    "aborted probe back to open"
    [ (k, "open", 1) ]
    (Serve.Breaker.tracked b);
  (* Gated through the fresh cooldown... *)
  (match Serve.Breaker.admit b k with
  | Serve.Breaker.Reject _ -> ()
  | Serve.Breaker.Allow -> Alcotest.fail "aborted probe skipped cooldown");
  (* ...then a fresh probe, which can still recover the key. *)
  Fault.Clock.warp 11.0;
  (match Serve.Breaker.admit b k with
  | Serve.Breaker.Allow -> ()
  | Serve.Breaker.Reject _ -> Alcotest.fail "no fresh probe after abort");
  Serve.Breaker.success b k;
  (* Abort on a settled (untracked) key is a no-op. *)
  Serve.Breaker.abort b k;
  match Serve.Breaker.admit b k with
  | Serve.Breaker.Allow -> ()
  | Serve.Breaker.Reject _ -> Alcotest.fail "abort gated a recovered key"

(* ------------------------------------------------------------------ *)
(* Server: serving layers and coalescing.                              *)

let test_serve_layers () =
  let root = fresh_root () in
  let srv = Serve.Server.create (default_config root "unused.sock") in
  Fun.protect ~finally:(fun () -> Serve.Server.destroy srv) @@ fun () ->
  (* Lookup on an empty registry: a miss, and never a search. *)
  let m = served_exn (Serve.Server.handle srv (Serve.Protocol.Lookup key2)) in
  check Alcotest.string "lookup misses" "miss" m.Serve.Protocol.status;
  (* Synth populates store + LRU... *)
  let s1 = served_exn (Serve.Server.handle srv (synth_req key2)) in
  check Alcotest.string "synthesized" "synthesized" s1.Serve.Protocol.status;
  (* ...so the repeat is a memory hit with the same kernel text. *)
  let s2 = served_exn (Serve.Server.handle srv (synth_req key2)) in
  check Alcotest.string "repeat cached" "cached" s2.Serve.Protocol.status;
  check Alcotest.string "from memory" "memory"
    (Option.value ~default:"?" s2.Serve.Protocol.source);
  check Alcotest.(option string) "same kernel" s1.Serve.Protocol.kernel
    s2.Serve.Protocol.kernel;
  let snap = Serve.Server.snapshot srv in
  check Alcotest.int "one search" 1 (serve_counter snap "searches");
  check Alcotest.int "recover ran at open" 1 (serve_counter snap "recover_runs");
  (* A second server on the same root serves the entry from disk without
     searching: the store half of the stack. *)
  let srv2 = Serve.Server.create (default_config root "unused2.sock") in
  Fun.protect ~finally:(fun () -> Serve.Server.destroy srv2) @@ fun () ->
  let d = served_exn (Serve.Server.handle srv2 (synth_req key2)) in
  check Alcotest.string "disk hit" "disk"
    (Option.value ~default:"?" d.Serve.Protocol.source);
  check Alcotest.int "no search on srv2" 0
    (serve_counter (Serve.Server.snapshot srv2) "searches")

(* N concurrent identical requests: exactly one search runs, everyone
   gets the same kernel. The non-leaders either coalesced onto the
   leader's flight or (in a rare interleaving) hit the cache the leader
   had just filled — both count as "no second search". *)
let test_serve_coalescing () =
  let rec attempt tries =
    let root = fresh_root () in
    let srv = Serve.Server.create (default_config root "unused.sock") in
    let n = 6 in
    let barrier = Atomic.make 0 in
    let results = Array.make n None in
    let threads =
      List.init n (fun i ->
          Thread.create
            (fun () ->
              Atomic.incr barrier;
              while Atomic.get barrier < n do
                Thread.yield ()
              done;
              results.(i) <-
                Some (served_exn (Serve.Server.handle srv (synth_req key4))))
            ())
    in
    List.iter Thread.join threads;
    let snap = Serve.Server.snapshot srv in
    let searches = serve_counter snap "searches" in
    let coalesced = serve_counter snap "coalesced" in
    Serve.Server.destroy srv;
    let served =
      Array.to_list results
      |> List.map (function Some s -> s | None -> Alcotest.fail "no result")
    in
    let kernels =
      List.sort_uniq compare
        (List.map (fun s -> s.Serve.Protocol.kernel) served)
    in
    check Alcotest.int "exactly one search for n concurrent requests" 1 searches;
    check Alcotest.int "one distinct kernel" 1 (List.length kernels);
    check Alcotest.bool "kernel present" true (List.hd kernels <> None);
    let flagged =
      List.length (List.filter (fun s -> s.Serve.Protocol.coalesced) served)
    in
    check Alcotest.int "coalesced counter matches flagged responses" coalesced
      flagged;
    (* The interesting path — joiners parked on the leader's flight — is
       timing-dependent; retry the whole scenario until it manifests. *)
    if flagged = 0 && tries > 1 then attempt (tries - 1)
    else check Alcotest.bool "at least one request coalesced" true (flagged > 0)
  in
  attempt 3

(* Quarantine on the serving path: corrupt the stored kernel, then ask
   again — the server must quarantine, re-run recovery, and re-synthesize
   rather than serve bad bytes. *)
let test_serve_quarantine_resynthesizes () =
  let root = fresh_root () in
  let srv = Serve.Server.create { (default_config root "unused.sock") with capacity = 0 } in
  Fun.protect ~finally:(fun () -> Serve.Server.destroy srv) @@ fun () ->
  let s1 = served_exn (Serve.Server.handle srv (synth_req key2)) in
  check Alcotest.string "synthesized" "synthesized" s1.Serve.Protocol.status;
  let dir = Registry.Store.entry_dir ~root key2 in
  let oc = open_out (Filename.concat dir "kernel.txt") in
  output_string oc "mov r1 r2\n";
  close_out oc;
  let s2 = served_exn (Serve.Server.handle srv (synth_req key2)) in
  check Alcotest.string "re-synthesized after quarantine" "synthesized"
    s2.Serve.Protocol.status;
  check Alcotest.(option string) "same kernel as before corruption"
    s1.Serve.Protocol.kernel s2.Serve.Protocol.kernel;
  let snap = Serve.Server.snapshot srv in
  check Alcotest.bool "recover re-ran after the quarantine" true
    (serve_counter snap "recover_runs" >= 2)

(* ------------------------------------------------------------------ *)
(* Overload, deadline, and breaker behavior through the server.        *)

(* serve.overload forces the admission gate shut: a typed "overloaded"
   response with a retry hint, counted under shed.queue_full — and the
   moment the plan is disarmed, the same request serves normally. *)
let test_overload_site_sheds () =
  let root = fresh_root () in
  let srv = Serve.Server.create (default_config root "unused.sock") in
  Fun.protect ~finally:(fun () -> Serve.Server.destroy srv) @@ fun () ->
  install_plan "seed=1;serve.overload=always";
  let s =
    Fun.protect ~finally:Fault.disarm @@ fun () ->
    served_exn (Serve.Server.handle srv (synth_req key3))
  in
  check Alcotest.string "typed shed" "overloaded" s.Serve.Protocol.status;
  check Alcotest.bool "retry hint" true (s.Serve.Protocol.retry_after <> None);
  check Alcotest.bool "no kernel" true (s.Serve.Protocol.kernel = None);
  check Alcotest.int "counted as queue_full shed" 1
    (serve_nested (Serve.Server.snapshot srv) [ "serve"; "shed"; "queue_full" ]);
  let s2 = served_exn (Serve.Server.handle srv (synth_req key3)) in
  check Alcotest.string "serves once disarmed" "synthesized"
    s2.Serve.Protocol.status

(* A request whose propagated deadline has already passed is shed before
   dispatch: status "timed_out" (the client's timeout taxonomy), never a
   worker touched. A warm cache hit still serves — answering from memory
   costs nothing, deadline or not. *)
let test_deadline_expired_before_dispatch () =
  let root = fresh_root () in
  let srv = Serve.Server.create (default_config root "unused.sock") in
  Fun.protect ~finally:(fun () -> Serve.Server.destroy srv) @@ fun () ->
  let expired =
    {
      Serve.Protocol.default_params with
      deadline = Some (Fault.Clock.now () -. 1.0);
    }
  in
  let s =
    served_exn (Serve.Server.handle srv (Serve.Protocol.Synth (key4, expired)))
  in
  check Alcotest.string "shed as timed_out" "timed_out" s.Serve.Protocol.status;
  check Alcotest.int "counted" 1
    (serve_nested (Serve.Server.snapshot srv)
       [ "serve"; "shed"; "deadline_expired" ]);
  check Alcotest.int "no search ran" 0
    (serve_counter (Serve.Server.snapshot srv) "searches");
  (* Populate the cache, then repeat with an expired deadline: the warm
     hit is served anyway. *)
  ignore (served_exn (Serve.Server.handle srv (synth_req key4)));
  let warm =
    served_exn (Serve.Server.handle srv (Serve.Protocol.Synth (key4, expired)))
  in
  check Alcotest.string "warm hit beats the deadline" "cached"
    warm.Serve.Protocol.status

(* Satellite: the poison-key chaos scenario. serve.worker_death=always
   makes every search for key3 die. With threshold 2 the breaker trips
   after exactly 2 worker deaths; the third request fast-fails with
   circuit_open and no worker is burned. A healthy key keeps serving
   throughout. Disarm + cooldown warp: the half-open probe synthesizes
   for real and the breaker recovers. *)
let test_breaker_trips_and_recovers () =
  let root = fresh_root () in
  let _ = make_entry root key2 in
  let srv =
    Serve.Server.create
      {
        (default_config root "unused.sock") with
        workers = 1;
        breaker_threshold = 2;
        breaker_cooldown = 5.0;
      }
  in
  Fun.protect ~finally:(fun () -> Serve.Server.destroy srv) @@ fun () ->
  install_plan "seed=3;serve.worker_death=always";
  (Fun.protect ~finally:Fault.disarm @@ fun () ->
   let s1 = served_exn (Serve.Server.handle srv (synth_req key3)) in
   check Alcotest.string "first poison outcome" "crashed"
     s1.Serve.Protocol.status;
   let s2 = served_exn (Serve.Server.handle srv (synth_req key3)) in
   check Alcotest.string "second poison outcome" "crashed"
     s2.Serve.Protocol.status;
   (* Tripped: fast-fail, the pool sees nothing. *)
   let s3 = served_exn (Serve.Server.handle srv (synth_req key3)) in
   check Alcotest.string "breaker open" "circuit_open" s3.Serve.Protocol.status;
   check Alcotest.bool "retry hint" true (s3.Serve.Protocol.retry_after <> None);
   let snap = Serve.Server.snapshot srv in
   check Alcotest.int "exactly threshold worker deaths" 2
     (serve_counter snap "worker_deaths");
   check Alcotest.int "shed counted" 1
     (serve_nested snap [ "serve"; "shed"; "circuit_open" ]);
   check Alcotest.int "one trip" 1
     (serve_nested snap [ "serve"; "breaker"; "trips" ]);
   (* Other keys are untouched by key3's breaker. *)
   let h = served_exn (Serve.Server.handle srv (Serve.Protocol.Lookup key2)) in
   check Alcotest.string "healthy key still serves" "cached"
     h.Serve.Protocol.status);
  (* Fault gone, cooldown over (warped clock): half-open probe runs a
     real search and recovers the key. *)
  Fault.Clock.warp 6.0;
  let s4 = served_exn (Serve.Server.handle srv (synth_req key3)) in
  check Alcotest.string "probe synthesizes" "synthesized"
    s4.Serve.Protocol.status;
  let snap = Serve.Server.snapshot srv in
  check Alcotest.int "half-open counted" 1
    (serve_nested snap [ "serve"; "breaker"; "half_opens" ]);
  check Alcotest.int "recovery counted" 1
    (serve_nested snap [ "serve"; "breaker"; "recoveries" ])

(* Regression: the half-open probe shed at admission (here via the
   serve.overload site, the same path as a full queue) must release the
   key back to Open — not leave it Half_open, where every later request
   would fast-fail with circuit_open until restart. After another
   cooldown a fresh probe runs and recovers the key. *)
let test_breaker_probe_shed_then_recovers () =
  let root = fresh_root () in
  let srv =
    Serve.Server.create
      {
        (default_config root "unused.sock") with
        workers = 1;
        breaker_threshold = 1;
        breaker_cooldown = 5.0;
      }
  in
  Fun.protect ~finally:(fun () -> Serve.Server.destroy srv) @@ fun () ->
  (* Trip the key open with one poison outcome. *)
  install_plan "seed=5;serve.worker_death=always";
  (Fun.protect ~finally:Fault.disarm @@ fun () ->
   let s = served_exn (Serve.Server.handle srv (synth_req key3)) in
   check Alcotest.string "poison outcome" "crashed" s.Serve.Protocol.status);
  (* Cooldown over: the admitted half-open probe is shed by overload
     before it reaches a worker. *)
  Fault.Clock.warp 6.0;
  install_plan "seed=5;serve.overload=always";
  (Fun.protect ~finally:Fault.disarm @@ fun () ->
   let s = served_exn (Serve.Server.handle srv (synth_req key3)) in
   check Alcotest.string "probe shed as overloaded" "overloaded"
     s.Serve.Protocol.status);
  (* Not wedged: during the fresh cooldown the key fast-fails as
     circuit_open (not a stuck Half_open rejecting forever)... *)
  let s = served_exn (Serve.Server.handle srv (synth_req key3)) in
  check Alcotest.string "open again during cooldown" "circuit_open"
    s.Serve.Protocol.status;
  (* ...and after it elapses a fresh probe synthesizes and recovers. *)
  Fault.Clock.warp 6.0;
  let s = served_exn (Serve.Server.handle srv (synth_req key3)) in
  check Alcotest.string "fresh probe recovers" "synthesized"
    s.Serve.Protocol.status;
  check Alcotest.int "recovery counted" 1
    (serve_nested (Serve.Server.snapshot srv)
       [ "serve"; "breaker"; "recoveries" ])

(* ------------------------------------------------------------------ *)
(* Drain and the warm-set snapshot.                                    *)

(* Drain persists the LRU working set (keys only, MRU first); a restart
   restores it through the certified lookup path and then serves warm —
   zero directory scans, zero re-certifications on the restored hit. *)
let test_drain_persists_and_restores () =
  let root = fresh_root () in
  let srv = Serve.Server.create (default_config root "unused.sock") in
  ignore (served_exn (Serve.Server.handle srv (synth_req key2)));
  ignore (served_exn (Serve.Server.handle srv (synth_req key3)));
  Serve.Server.drain srv;
  check Alcotest.bool "draining" true (Serve.Server.draining srv);
  Serve.Server.drain srv (* idempotent *);
  check Alcotest.int "snapshot written" 2
    (serve_nested (Serve.Server.snapshot srv)
       [ "serve"; "snapshot"; "written" ]);
  (* New work is refused while draining; warm hits still serve. *)
  let refused = served_exn (Serve.Server.handle srv (synth_req key4)) in
  check Alcotest.string "draining sheds new work" "overloaded"
    refused.Serve.Protocol.status;
  let warm = served_exn (Serve.Server.handle srv (synth_req key3)) in
  check Alcotest.string "warm hit during drain" "cached"
    warm.Serve.Protocol.status;
  Serve.Server.destroy srv;
  (match Registry.Store.read_warmset ~root with
  | Ok keys ->
      check
        Alcotest.(list string)
        "keys only, MRU first"
        [ Registry.Key.canonical key3; Registry.Key.canonical key2 ]
        (List.map Registry.Key.canonical keys)
  | Error msg -> Alcotest.fail ("snapshot unreadable: " ^ msg));
  (* Restart on the same root: the warm set is restored at open... *)
  let srv2 = Serve.Server.create (default_config root "unused2.sock") in
  Fun.protect ~finally:(fun () -> Serve.Server.destroy srv2) @@ fun () ->
  check Alcotest.int "restored" 2
    (serve_nested (Serve.Server.snapshot srv2)
       [ "serve"; "snapshot"; "restored" ]);
  (* ...and the very first request is a memory hit. *)
  let readdir0 = Registry.Store.readdir_calls () in
  let certs0 = Analysis.Certify.certifications () in
  let s = served_exn (Serve.Server.handle srv2 (Serve.Protocol.Lookup key2)) in
  check Alcotest.string "warm from the restored set" "memory"
    (Option.value ~default:"?" s.Serve.Protocol.source);
  check Alcotest.int "zero directory scans" 0
    (Registry.Store.readdir_calls () - readdir0);
  check Alcotest.int "zero re-certifications" 0
    (Analysis.Certify.certifications () - certs0)

(* Zero trust in the snapshot file: hand-tampered bytes mean a cold
   start, never a crash and never uncertified serving. *)
let test_tampered_snapshot_cold_start () =
  let root = fresh_root () in
  let srv = Serve.Server.create (default_config root "unused.sock") in
  ignore (served_exn (Serve.Server.handle srv (synth_req key2)));
  Serve.Server.drain srv;
  Serve.Server.destroy srv;
  let oc = open_out (Registry.Store.warmset_path root) in
  output_string oc "{\"schema\":\"sortsynth-serve-warmset/v1\",\"keys\":[{";
  close_out oc;
  (match Registry.Store.read_warmset ~root with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tampered snapshot parsed");
  let srv2 = Serve.Server.create (default_config root "unused2.sock") in
  Fun.protect ~finally:(fun () -> Serve.Server.destroy srv2) @@ fun () ->
  check Alcotest.int "cold start" 0
    (serve_nested (Serve.Server.snapshot srv2)
       [ "serve"; "snapshot"; "restored" ]);
  (* The entry itself is fine — it serves from disk as usual. *)
  let s = served_exn (Serve.Server.handle srv2 (Serve.Protocol.Lookup key2)) in
  check Alcotest.string "disk is intact" "disk"
    (Option.value ~default:"?" s.Serve.Protocol.source)

(* serve.snapshot_torn: the drain-time write crashes mid-file. The torn
   snapshot is published (exactly what a real crash leaves), and the
   restart must fall back to a cold start. *)
let test_torn_snapshot_site () =
  let root = fresh_root () in
  let srv = Serve.Server.create (default_config root "unused.sock") in
  ignore (served_exn (Serve.Server.handle srv (synth_req key2)));
  install_plan "seed=5;serve.snapshot_torn=always";
  (Fun.protect ~finally:Fault.disarm @@ fun () -> Serve.Server.drain srv);
  Serve.Server.destroy srv;
  (match Registry.Store.read_warmset ~root with
  | Error _ -> ()
  | Ok [] -> Alcotest.fail "torn snapshot read as empty — site did not fire"
  | Ok _ -> Alcotest.fail "torn snapshot parsed");
  let srv2 = Serve.Server.create (default_config root "unused2.sock") in
  Fun.protect ~finally:(fun () -> Serve.Server.destroy srv2) @@ fun () ->
  check Alcotest.int "cold start after torn snapshot" 0
    (serve_nested (Serve.Server.snapshot srv2)
       [ "serve"; "snapshot"; "restored" ])

(* A valid snapshot naming a tampered store entry: restore re-admits
   through the certified lookup, so the bad entry is quarantined — never
   in the warm cache — and a fresh request re-synthesizes. *)
let test_snapshot_cannot_bypass_certification () =
  let root = fresh_root () in
  let srv = Serve.Server.create (default_config root "unused.sock") in
  let s1 = served_exn (Serve.Server.handle srv (synth_req key2)) in
  Serve.Server.drain srv;
  Serve.Server.destroy srv;
  (* The snapshot is honest; the kernel bytes underneath it are not. *)
  let dir = Registry.Store.entry_dir ~root key2 in
  let oc = open_out (Filename.concat dir "kernel.txt") in
  output_string oc "mov r1 r2\n";
  close_out oc;
  let srv2 = Serve.Server.create (default_config root "unused2.sock") in
  Fun.protect ~finally:(fun () -> Serve.Server.destroy srv2) @@ fun () ->
  check Alcotest.int "tampered entry not admitted" 0
    (serve_nested (Serve.Server.snapshot srv2)
       [ "serve"; "snapshot"; "restored" ]);
  let s2 = served_exn (Serve.Server.handle srv2 (synth_req key2)) in
  check Alcotest.string "re-synthesized instead" "synthesized"
    s2.Serve.Protocol.status;
  check Alcotest.(option string) "same kernel as before tampering"
    s1.Serve.Protocol.kernel s2.Serve.Protocol.kernel

(* serve.drain_hang: in-flight work that outlives the grace period. The
   site burns the grace instantly on the warped clock; drain must come
   back anyway and still write the snapshot. *)
let test_drain_hang_abandons_stragglers () =
  let root = fresh_root () in
  let srv = Serve.Server.create (default_config root "unused.sock") in
  ignore (served_exn (Serve.Server.handle srv (synth_req key2)));
  install_plan "seed=8;serve.drain_hang=always";
  (Fun.protect ~finally:Fault.disarm @@ fun () ->
   Serve.Server.drain srv;
   check Alcotest.int "grace burned by the site" 1
     (Fault.hits Fault.Serve_drain_hang));
  check Alcotest.int "snapshot still written" 1
    (serve_nested (Serve.Server.snapshot srv) [ "serve"; "snapshot"; "written" ]);
  Serve.Server.destroy srv

(* ------------------------------------------------------------------ *)
(* Stats schema and batch fan-out.                                     *)

(* The serve block is one JSON value the repo's own validator accepts,
   with every overload/breaker/snapshot field the operators' tooling
   keys on. *)
let test_stats_schema () =
  let root = fresh_root () in
  let srv = Serve.Server.create (default_config root "unused.sock") in
  Fun.protect ~finally:(fun () -> Serve.Server.destroy srv) @@ fun () ->
  ignore (served_exn (Serve.Server.handle srv (synth_req key2)));
  let snap = Serve.Server.snapshot srv in
  (match Jsonv.parse (Jsonv.to_string snap) with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("stats snapshot not valid JSON: " ^ msg));
  List.iter
    (fun name -> ignore (serve_counter snap name))
    [
      "requests"; "active_conns"; "max_conns"; "queued"; "queue_hwm"; "max_queue";
    ];
  List.iter
    (fun path -> ignore (serve_nested snap path))
    [
      [ "serve"; "shed"; "queue_full" ];
      [ "serve"; "shed"; "deadline_expired" ];
      [ "serve"; "shed"; "circuit_open" ];
      [ "serve"; "shed"; "conn_budget" ];
      [ "serve"; "shed"; "draining" ];
      [ "serve"; "breaker"; "threshold" ];
      [ "serve"; "breaker"; "trips" ];
      [ "serve"; "breaker"; "half_opens" ];
      [ "serve"; "breaker"; "recoveries" ];
      [ "serve"; "breaker"; "rejections" ];
      [ "serve"; "snapshot"; "restored" ];
      [ "serve"; "snapshot"; "written" ];
    ];
  (match
     Option.bind (Jsonv.member "serve" snap)
       (Jsonv.member "draining")
   with
  | Some (Jsonv.Bool false) -> ()
  | _ -> Alcotest.fail "stats: missing serve.draining bool");
  match
    Option.bind (Jsonv.member "serve" snap) (fun s ->
        Option.bind (Jsonv.member "breaker" s)
          (Jsonv.member "keys"))
  with
  | Some (Jsonv.Arr _) -> ()
  | _ -> Alcotest.fail "stats: missing serve.breaker.keys array"

(* Server-side batch fan-out: one Batch request spreads across the pool,
   answers come back in input order, duplicates coalesce or hit the
   cache — and a worker death takes down exactly its own job. *)
let test_batch_fanout () =
  let root = fresh_root () in
  let srv = Serve.Server.create (default_config root "unused.sock") in
  Fun.protect ~finally:(fun () -> Serve.Server.destroy srv) @@ fun () ->
  let keys = [ key3; key2; key3 ] in
  match
    Serve.Server.handle srv
      (Serve.Protocol.Batch (keys, Serve.Protocol.default_params))
  with
  | Serve.Protocol.Jobs served ->
      check Alcotest.int "one answer per job" 3 (List.length served);
      List.iter2
        (fun k (s : Serve.Protocol.served) ->
          check Alcotest.string "input order preserved"
            (Registry.Key.canonical k) s.Serve.Protocol.canonical;
          check Alcotest.bool
            ("kernel for " ^ s.Serve.Protocol.canonical)
            true
            (s.Serve.Protocol.kernel <> None))
        keys served;
      let kernels3 =
        List.filter_map
          (fun (s : Serve.Protocol.served) ->
            if s.Serve.Protocol.canonical = Registry.Key.canonical key3 then
              s.Serve.Protocol.kernel
            else None)
          served
      in
      check Alcotest.int "duplicate jobs answered twice" 2
        (List.length kernels3);
      check Alcotest.bool "identical kernel for identical jobs" true
        (List.length (List.sort_uniq compare kernels3) = 1)
  | _ -> Alcotest.fail "expected a jobs response"

let test_batch_fanout_isolates_worker_death () =
  let root = fresh_root () in
  let _ = make_entry root key2 in
  install_plan "seed=4;serve.worker_death=nth:1";
  Fun.protect ~finally:Fault.disarm @@ fun () ->
  let srv =
    Serve.Server.create { (default_config root "unused.sock") with workers = 1 }
  in
  Fun.protect ~finally:(fun () -> Serve.Server.destroy srv) @@ fun () ->
  (* key2 serves from disk (no pool job); key4 is the only search, and
     its worker dies — the batch still answers both, in order. *)
  match
    Serve.Server.handle srv
      (Serve.Protocol.Batch ([ key4; key2 ], Serve.Protocol.default_params))
  with
  | Serve.Protocol.Jobs [ s4; s2 ] ->
      check Alcotest.string "poisoned job crashed" "crashed"
        s4.Serve.Protocol.status;
      check Alcotest.string "healthy job served" "cached"
        s2.Serve.Protocol.status;
      check Alcotest.string "from disk" "disk"
        (Option.value ~default:"?" s2.Serve.Protocol.source)
  | _ -> Alcotest.fail "expected two jobs back"

(* ------------------------------------------------------------------ *)
(* Socket layer: torn connection chaos.                                *)

let with_running_server config f =
  let srv = Serve.Server.create config in
  let ready_m = Mutex.create () in
  let ready_c = Condition.create () in
  let ready = ref false in
  let finished = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.set finished true)
          (fun () ->
            Serve.Server.run
              ~on_ready:(fun () ->
                Mutex.lock ready_m;
                ready := true;
                Condition.signal ready_c;
                Mutex.unlock ready_m)
              srv))
      ()
  in
  Mutex.lock ready_m;
  while not !ready do
    Condition.wait ready_c ready_m
  done;
  Mutex.unlock ready_m;
  let outcome =
    try Ok (f srv) with e -> Error (e, Printexc.get_raw_backtrace ())
  in
  (* Belt and braces: make sure the daemon dies even on test failure. *)
  (if not (Serve.Server.stopped srv) then
     ignore
       (Serve.Client.roundtrip ~socket:config.Serve.Server.socket_path
          Serve.Protocol.Shutdown));
  (* A server that sheds every connection never admits that Shutdown:
     stop it directly. *)
  if not (Serve.Server.stopped srv) then Serve.Server.drain srv;
  (* A daemon that ignores both must fail the test, not wedge the suite:
     wait for the server thread against a deadline on the monotonic clock. *)
  let deadline = Fault.Clock.now () +. 30. in
  while (not (Atomic.get finished)) && Fault.Clock.now () < deadline do
    Thread.delay 0.01
  done;
  if not (Atomic.get finished) then
    Alcotest.failf "server thread still running 30 s after shutdown%s"
      (match outcome with
      | Error (e, _) -> " (the test itself raised " ^ Printexc.to_string e ^ ")"
      | Ok _ -> "");
  Thread.join th;
  match outcome with
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

let test_torn_connection_chaos () =
  let root = fresh_root () in
  let socket = Filename.concat (fresh_root ()) "synthd.sock" in
  let config = { (default_config root socket) with workers = 1 } in
  (* First response is torn mid-line; everything after flows normally. *)
  install_plan "seed=11;serve.torn_connection=nth:1";
  Fun.protect ~finally:Fault.disarm @@ fun () ->
  with_running_server config @@ fun srv ->
  (* The torn request: a synthesis whose response never fully arrives. *)
  (match
     Serve.Client.roundtrip ~socket (synth_req key2)
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "torn connection site did not fire");
  (* The server state the interrupted client never saw must be whole:
     the store certified, the cache serving the very kernel whose
     response was cut off. *)
  (match Serve.Client.roundtrip ~socket (Serve.Protocol.Lookup key2) with
  | Ok (Serve.Protocol.Served s) ->
      check Alcotest.string "served after tear" "cached" s.Serve.Protocol.status;
      check Alcotest.string "from the memory cache" "memory"
        (Option.value ~default:"?" s.Serve.Protocol.source);
      check Alcotest.bool "kernel intact" true (s.Serve.Protocol.kernel <> None)
  | Ok _ -> Alcotest.fail "unexpected response shape"
  | Error msg -> Alcotest.fail msg);
  List.iter
    (fun (h, r) ->
      match r with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail (Printf.sprintf "%s corrupt after tear: %s" h msg))
    (Registry.Store.verify_all ~root ());
  let snap = Serve.Server.snapshot srv in
  check Alcotest.int "tear was counted" 1 (serve_counter snap "torn_connections");
  match Serve.Client.roundtrip ~socket Serve.Protocol.Shutdown with
  | Ok Serve.Protocol.Goodbye -> ()
  | Ok _ -> Alcotest.fail "unexpected shutdown response"
  | Error msg -> Alcotest.fail msg

(* Connection admission: with a zero connection budget, every connection
   gets one typed Overloaded line with a retry hint — never a silent
   close, never a hang. *)
let test_connection_budget_sheds () =
  let root = fresh_root () in
  let _ = make_entry root key2 in
  let socket = Filename.concat (fresh_root ()) "synthd.sock" in
  let config = { (default_config root socket) with max_conns = 0 } in
  with_running_server config @@ fun srv ->
  (match Serve.Client.roundtrip ~socket (Serve.Protocol.Lookup key2) with
  | Ok (Serve.Protocol.Overloaded r) ->
      check Alcotest.bool "retry hint" true (r > 0.)
  | Ok _ -> Alcotest.fail "over-budget connection was not shed"
  | Error msg -> Alcotest.fail msg);
  check Alcotest.bool "shed counted" true
    (serve_nested (Serve.Server.snapshot srv) [ "serve"; "shed"; "conn_budget" ]
    >= 1);
  (* Stop the daemon directly — a shed connection can't carry Shutdown. *)
  Serve.Server.drain srv

(* Regression: the shed line outlives the send error. The zero-budget
   server writes its typed Overloaded line and closes before our request
   goes out, so the client's write fails with EPIPE; the client must still
   return that line (the CLI's exit 6), not "send failed" (exit 5). The
   accept loop sheds connections one at a time in arrival order, so once
   a second connection's shed line is readable, the first connection's
   line is written and its server end is closed — no sleeps involved. *)
let test_shed_before_send_is_typed () =
  let socket = Filename.concat (fresh_root ()) "synthd.sock" in
  let config = { (default_config (fresh_root ()) socket) with max_conns = 0 } in
  with_running_server config @@ fun _srv ->
  let c =
    match Serve.Client.connect ~socket with Ok c -> c | Error msg -> Alcotest.fail msg
  in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
  let barrier = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close barrier) @@ fun () ->
  Unix.connect barrier (Unix.ADDR_UNIX socket);
  (match Unix.select [ barrier ] [] [] 30. with
  | [], _, _ -> Alcotest.fail "second connection was not shed within 30 s"
  | _ -> ());
  match Serve.Client.request c (Serve.Protocol.Lookup key2) with
  | Ok (Serve.Protocol.Overloaded r) -> check Alcotest.bool "retry hint" true (r > 0.)
  | Ok _ -> Alcotest.fail "shed connection got a non-overloaded answer"
  | Error msg -> Alcotest.fail msg

(* ------------------------------------------------------------------ *)
(* Sharded store migration round-trip.                                 *)

let test_migrate_roundtrip () =
  let root = fresh_root () in
  List.iter
    (fun k -> ignore (make_entry root k))
    [ key2; key3; Registry.Key.make ~engine:Registry.Key.Level 3 ];
  let before = Registry.Store.scan ~root in
  check Alcotest.int "inserts land sharded" 0 (List.length before.Registry.Store.flat);
  (* Fabricate a flat v1 store by undoing the shard renames. *)
  let store = Filename.concat root "store" in
  List.iter
    (fun h ->
      let shard = Filename.concat store (String.sub h 0 2) in
      Sys.rename (Filename.concat shard h) (Filename.concat store h);
      if Sys.readdir shard = [||] then Sys.rmdir shard)
    before.Registry.Store.hashes;
  let flat = Registry.Store.scan ~root in
  check Alcotest.int "all flat now" 3 (List.length flat.Registry.Store.flat);
  check
    Alcotest.(list string)
    "same entries" before.Registry.Store.hashes flat.Registry.Store.hashes;
  (* Flat v1 stays fully servable (read-compat)... *)
  (match Registry.Store.lookup ~root key2 with
  | Registry.Store.Hit _ -> ()
  | _ -> Alcotest.fail "flat entry not served");
  (* ...and migrate brings every entry home, idempotently. *)
  let m = Registry.Store.migrate ~root () in
  check Alcotest.int "moved" 3 m.Registry.Store.moved;
  check Alcotest.int "no conflicts" 0 m.Registry.Store.conflicts;
  let after = Registry.Store.scan ~root in
  check Alcotest.int "nothing flat" 0 (List.length after.Registry.Store.flat);
  check
    Alcotest.(list string)
    "identical inventory" before.Registry.Store.hashes after.Registry.Store.hashes;
  let m2 = Registry.Store.migrate ~root () in
  check Alcotest.int "idempotent" 0 m2.Registry.Store.moved;
  List.iter
    (fun (h, r) ->
      match r with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail (Printf.sprintf "%s after migrate: %s" h msg))
    (Registry.Store.verify_all ~root ())

let () =
  Alcotest.run "serve"
    [
      ( "lru",
        [
          Alcotest.test_case "basics" `Quick test_lru_basics;
          Alcotest.test_case "capacity zero" `Quick test_lru_capacity_zero;
          Alcotest.test_case "certified at admission" `Quick
            test_lru_certified_at_admission;
        ] );
      ( "protocol",
        [ Alcotest.test_case "roundtrip" `Quick test_protocol_roundtrip ] );
      ( "pool",
        [
          Alcotest.test_case "runs and survives exceptions" `Quick
            test_pool_runs_and_survives_exceptions;
          Alcotest.test_case "worker death isolated" `Quick
            test_pool_worker_death_isolated;
          Alcotest.test_case "bounded queue" `Quick test_pool_bounded_queue;
          Alcotest.test_case "queue stall sheds expired" `Quick
            test_pool_queue_stall_sheds_expired;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "state machine" `Quick test_breaker_state_machine;
          Alcotest.test_case "abort releases probe" `Quick
            test_breaker_abort_releases_probe;
        ] );
      ( "server",
        [
          Alcotest.test_case "serving layers" `Quick test_serve_layers;
          Alcotest.test_case "coalescing" `Slow test_serve_coalescing;
          Alcotest.test_case "quarantine resynthesizes" `Quick
            test_serve_quarantine_resynthesizes;
          Alcotest.test_case "overload site sheds" `Quick
            test_overload_site_sheds;
          Alcotest.test_case "deadline expired before dispatch" `Quick
            test_deadline_expired_before_dispatch;
          Alcotest.test_case "stats schema" `Quick test_stats_schema;
          Alcotest.test_case "batch fan-out" `Slow test_batch_fanout;
          Alcotest.test_case "batch fan-out isolates worker death" `Quick
            test_batch_fanout_isolates_worker_death;
        ] );
      ( "drain",
        [
          Alcotest.test_case "persists and restores warm set" `Quick
            test_drain_persists_and_restores;
          Alcotest.test_case "tampered snapshot cold start" `Quick
            test_tampered_snapshot_cold_start;
          Alcotest.test_case "torn snapshot site" `Quick test_torn_snapshot_site;
          Alcotest.test_case "snapshot cannot bypass certification" `Quick
            test_snapshot_cannot_bypass_certification;
          Alcotest.test_case "drain hang abandons stragglers" `Quick
            test_drain_hang_abandons_stragglers;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "torn connection" `Slow test_torn_connection_chaos;
          Alcotest.test_case "breaker trips and recovers" `Slow
            test_breaker_trips_and_recovers;
          Alcotest.test_case "shed probe recovers" `Slow
            test_breaker_probe_shed_then_recovers;
          Alcotest.test_case "connection budget sheds" `Slow
            test_connection_budget_sheds;
          Alcotest.test_case "shed before send is typed" `Quick
            test_shed_before_send_is_typed;
        ] );
      ( "migrate",
        [ Alcotest.test_case "roundtrip" `Quick test_migrate_roundtrip ] );
    ]
