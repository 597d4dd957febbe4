(* serve-hot and serve-churn: a [synth serve] daemon on a Unix socket,
   loaded by a closed loop of 2 connections sending [Synth] requests. *)

module Key = Registry.Key
module Store = Registry.Store
module P = Serve.Protocol

type shape = Hot | Churn

(* The request stream of one run, drawn from the seed. Indices below
   [warm] are the untimed warm-up. *)
type stream = {
  key_of : int -> Key.t;
  limit : int;  (** Requests in the stream. *)
  warm : int;
  warmset : Key.t list;  (** Restored into the LRU when the daemon starts. *)
  capacity : int;  (** LRU capacity. *)
}

(* serve-hot: 64 stored keys, all restored into a 128-entry LRU; the
   warm-up asks for each once, then draws are uniform over the 64. *)
let hot_stream (fx : Fixture.t) seed =
  let hot = Array.sub (Fixture.shuffled [| seed; 1 |] fx.stored) 0 64 in
  {
    key_of = (fun i -> if i < 64 then hot.(i) else hot.(Hashtbl.hash (seed, i) mod 64));
    limit = max_int;
    warm = 64;
    warmset = Array.to_list hot;
    capacity = 128;
  }

(* serve-churn: a 32-entry LRU over the 300 stored keys; 1 request in 10
   asks for a never-seen key from the miss pool, the rest draw uniformly
   from the stored keys. The stream ends when the pool runs out. *)
let churn_stream (fx : Fixture.t) seed =
  let pool = Fixture.shuffled [| seed; 2 |] fx.pool in
  let stored = Array.length fx.stored in
  let seq = ref [] and used = ref 0 and i = ref 0 in
  while !used < Array.length pool do
    (if Hashtbl.hash (seed, !i, 1) mod 10 = 0 then begin
       seq := pool.(!used) :: !seq;
       incr used
     end
     else seq := fx.stored.(Hashtbl.hash (seed, !i, 2) mod stored) :: !seq);
    incr i
  done;
  let seq = Array.of_list (List.rev !seq) in
  {
    key_of = (fun i -> seq.(i));
    limit = Array.length seq;
    warm = 200;
    warmset = Array.to_list (Array.sub (Fixture.shuffled [| seed; 3 |] fx.stored) 0 32);
    capacity = 32;
  }

(* Set-ups timed per run: half before the load, half after it, so a
   short burst of host load cannot sway them all. *)
let setup_reps = 16

(* Start the daemon [reps] times over a fresh copy of the fixture under
   [dir]/[name], restoring the same warm set each time; keep the last one
   running. Returns it with each start's (seconds, steal). *)
let start (fx : Fixture.t) st ~dir ~name ~reps =
  let root = Filename.concat dir name and socket = Filename.concat dir (name ^ ".sock") in
  Fixture.copy fx root;
  let rec go r setups =
    (match Store.write_warmset ~root st.warmset with
    | Ok _ -> ()
    | Error e -> failwith ("warm set: " ^ e));
    let (d, s), (_, steal) =
      Stat.timed_steal (fun () -> Daemon.spawn ~root ~socket ~capacity:st.capacity)
    in
    let setups = (s, steal) :: setups in
    if r = reps then (d, setups)
    else begin
      Daemon.shutdown d;
      go (r + 1) setups
    end
  in
  go 1 []

let check (fx : Fixture.t) key text =
  Checks.kernel Fixture.cfg ~expected_len:(Fixture.length_of fx key) text

let load fx st d ~first ~limit ~stop_at ~parent =
  Loadgen.run ~socket:d.Daemon.socket ~conns:2 ~first ~limit ~stop_at ~key_of:st.key_of
    ~check:(check fx) ~parent

(* One timed phase: [stats] snapshots just before and just after. *)
let phase fx st d ~first ~seconds ~parent =
  let before = Daemon.stats d in
  let r = load fx st d ~first ~limit:st.limit ~stop_at:(Fault.Clock.now () +. seconds) ~parent in
  let after = Daemon.stats d in
  (r, before, after)

let deltas (r : Loadgen.result) before after =
  let dl = Daemon.delta before after in
  let src s = Loadgen.count r (fun x -> x.Loadgen.ok && x.Loadgen.source = s) in
  {
    Checks.requests = Array.length r.Loadgen.samples;
    memory = src "memory";
    disk = src "disk";
    search = src "search";
    inserted = dl [ "registry"; "inserted" ];
    evictions = dl [ "serve"; "evictions" ];
    searches = dl [ "serve"; "searches" ];
    shed =
      List.fold_left
        (fun acc k -> acc + dl [ "serve"; "shed"; k ])
        0
        [ "queue_full"; "deadline_expired"; "circuit_open"; "conn_budget"; "draining" ];
    readdir_calls = dl [ "process"; "readdir_calls" ];
    certifications = dl [ "process"; "certifications" ];
    symbolic_proofs = dl [ "process"; "symbolic_proofs" ];
  }

let path_errors shape r before after =
  let d = deltas r before after in
  match shape with Hot -> Checks.hot_path d | Churn -> Checks.churn_path d

let failures (r : Loadgen.result) = Loadgen.count r (fun s -> not s.Loadgen.ok)

let p99_errors (r : Loadgen.result) =
  let n = Array.length (Loadgen.lats r) in
  if Stat.beyond n 0.99 >= 10 then []
  else [ Printf.sprintf "only %d samples: p99 needs at least 10 beyond it" n ]

let note (r : Loadgen.result) (q : Loadgen.result) =
  let w = Loadgen.quiet_windows r in
  Printf.sprintf
    "host steal during the load: %.1f%%; %d of %d windows of %.2f s kept as quiet (%d of %d answers)"
    (100. *. Loadgen.steal_share r)
    (Array.fold_left (fun n k -> if k then n + 1 else n) 0 w)
    (Array.length w) Loadgen.window (Array.length q.Loadgen.samples)
    (Array.length r.Loadgen.samples)

let whole_run (r : Loadgen.result) =
  let l = Loadgen.lats r in
  Printf.sprintf "whole phase, all windows: %.1f req/s, p50 %.4f ms, p99 %.4f ms"
    (float (Array.length l) /. r.Loadgen.wall) (Stat.median l *. 1e3) (Stat.percentile l 0.99 *. 1e3)

let run_dir () = Printf.sprintf "%s/run-%d" Fixture.work_dir (Unix.getpid ())

let with_run_dir f =
  let dir = run_dir () in
  Fixture.rm_rf dir;
  Fixture.mkdir_p dir;
  Fun.protect ~finally:(fun () -> Fixture.rm_rf dir) (fun () -> f dir)

let stream shape fx seed =
  match shape with Hot -> hot_stream fx seed | Churn -> churn_stream fx seed

let warm_up fx st d =
  let r = load fx st d ~first:0 ~limit:st.warm ~stop_at:infinity ~parent:0 in
  r.Loadgen.errors

(* Untraced: set-up timed [setup_reps / 2] times, warm-up, [seconds] of
   closed-loop load, then [setup_reps / 2] more set-ups on a fresh copy. *)
let measure shape ~seed ~seconds =
  let fx = Fixture.get () in
  let st = stream shape fx seed in
  with_run_dir (fun dir ->
      let d, setups = start fx st ~dir ~name:"registry" ~reps:(setup_reps / 2) in
      let warm_errors = warm_up fx st d in
      let r, before, after = phase fx st d ~first:st.warm ~seconds ~parent:0 in
      let rss = Daemon.peak_rss_mb d in
      Daemon.shutdown d;
      let d, later = start fx st ~dir ~name:"again" ~reps:(setup_reps / 2) in
      Daemon.shutdown d;
      let all_setups = Array.of_list (List.rev_append setups (List.rev later)) in
      let q = Loadgen.quiet r in
      let lat = Loadgen.lats q in
      let ok = Array.length lat in
      let setups = Stat.quiet_times all_setups in
      let rate, answers = Loadgen.quiet_rate r in
      {
        Report.attempted = Array.length r.Loadgen.samples;
        failed = failures r;
        errors = warm_errors @ r.Loadgen.errors @ path_errors shape r before after @ p99_errors q;
        notes =
          [
            note r q;
            whole_run r;
            "set-up seconds, all: "
            ^ String.concat " "
                (Array.to_list (Array.map (fun (t, _) -> Printf.sprintf "%.4f" t) all_setups));
          ];
        metrics =
          Report.
            [
              m ~samples:ok "synth_s" (Stat.mean lat);
              m ~samples:(Array.length setups) "setup_s" (Stat.median setups);
              m "peak_rss_mb" rss;
              m ~samples:answers "throughput_rps" rate;
              m ~samples:ok "p50_ms" (Stat.median lat *. 1e3);
              m ~samples:ok "p99_ms" (Stat.percentile lat 0.99 *. 1e3);
            ];
      })

(* ---------- traced run ---------- *)

let ms = 1e3
let us = 1e6

let latency_metrics (r : Loadgen.result) before after =
  let per source =
    let l = Loadgen.lats ~source r in
    let n = Array.length l in
    Report.
      [
        m ~samples:n ("serve." ^ source ^ "_p50_ms") (Stat.median l *. ms);
        m ~samples:n ("serve." ^ source ^ "_p99_ms") (Stat.percentile l 0.99 *. ms);
      ]
  in
  let ok = List.filter (fun s -> s.Loadgen.ok) (Array.to_list r.Loadgen.samples) in
  let n = List.length ok in
  let wire = Array.of_list (List.map (fun s -> s.Loadgen.lat -. s.Loadgen.server) ok) in
  let d = deltas r before after in
  let ratio k = float k /. float (max 1 d.Checks.requests) in
  let dl = Daemon.delta before after in
  per "memory" @ per "disk" @ per "search"
  @ Report.
      [
        m ~samples:n "serve.wire_p50_ms" (Stat.median wire *. ms);
        m ~samples:n "serve.memory_ratio" (ratio d.Checks.memory);
        m ~samples:n "serve.disk_ratio" (ratio d.Checks.disk);
        m ~samples:n "serve.miss_ratio" (ratio d.Checks.search);
        m "serve.evictions" (float d.Checks.evictions);
        m "serve.queue_hwm" (float (Daemon.field after [ "serve"; "queue_hwm" ]));
        m "serve.coalesced" (float (dl [ "serve"; "coalesced" ]));
        m "serve.shed" (float d.Checks.shed);
        m "registry.readdir_calls" (float d.Checks.readdir_calls);
        m "registry.certifications" (float d.Checks.certifications);
        m "registry.symbolic_proofs" (float d.Checks.symbolic_proofs);
      ]

let timed_span ~parent name f =
  let t0 = Fault.Clock.now () in
  let v = Spans.span ~parent name (fun _ -> f ()) in
  (Fault.Clock.now () -. t0, v)

let med_m ~scale name samples =
  Report.m ~samples:(Array.length samples) name (Stat.median samples *. scale)

(* The keys of the timed requests that are stored / in the miss pool,
   first occurrence first. *)
let distinct (fx : Fixture.t) st (r : Loadgen.result) ~stored ~cap =
  let is_stored = Hashtbl.create 512 in
  Array.iter (fun k -> Hashtbl.replace is_stored (Key.canonical k) ()) fx.Fixture.stored;
  let idx = Array.map (fun s -> s.Loadgen.idx) r.Loadgen.samples in
  Array.sort compare idx;
  let seen = Hashtbl.create 512 and out = ref [] and i = ref 0 in
  while !i < Array.length idx && Hashtbl.length seen < cap do
    let k = st.key_of idx.(!i) in
    let c = Key.canonical k in
    if Hashtbl.mem is_stored c = stored && not (Hashtbl.mem seen c) then begin
      Hashtbl.replace seen c ();
      out := k :: !out
    end;
    incr i
  done;
  List.rev !out

(* In-process calls into each layer on private copies of the fixture. *)
let probes shape (fx : Fixture.t) st (r : Loadgen.result) ~dir ~parent =
  let errors = ref [] in
  let err e = errors := e @ !errors in
  let root = Filename.concat dir "probe" in
  Fixture.copy fx root;
  let recover = Array.init 3 (fun _ -> fst (timed_span ~parent "store.recover" (fun () -> Store.recover ~root ()))) in
  let stored = distinct fx st r ~stored:true ~cap:300 in
  let entries =
    List.map
      (fun k ->
        match timed_span ~parent "store.lookup" (fun () -> Store.lookup ~root k) with
        | dt, Store.Hit e ->
            err (check fx k (Isa.Program.to_string Fixture.cfg e.Store.program));
            (dt, k, e)
        | _ -> failwith ("store probe: stored key missing: " ^ Key.canonical k))
      stored
  in
  let lookups = Array.of_list (List.map (fun (dt, _, _) -> dt) entries) in
  let certify name f =
    let t =
      List.concat_map
        (fun (_, _, e) ->
          Array.to_list
            (Stat.time_reps 5 (fun () ->
                 Spans.span ~parent ("certify." ^ name) (fun _ -> f Fixture.cfg e.Store.program))))
        entries
    in
    med_m ~scale:us ("certify." ^ name ^ "_us") (Array.of_list t)
  in
  let miss_metrics =
    match shape with
    | Hot -> Report.absent [ "scheduler"; "store.insert_ms"; "search" ]
    | Churn ->
        let misses = distinct fx st r ~stored:false ~cap:20 in
        let runs =
          List.map
            (fun k ->
              let dt, j =
                timed_span ~parent "scheduler.run_one" (fun () ->
                    Registry.Scheduler.run_one ~timeout:None ~retries:1 ~backoff:0.05
                      ~budget:None k)
              in
              match (j.Registry.Scheduler.program, j.Registry.Scheduler.search) with
              | Some p, Some res ->
                  err (check fx k (Isa.Program.to_string Fixture.cfg p));
                  let ins, v =
                    timed_span ~parent "store.insert" (fun () -> Store.insert ~root k res)
                  in
                  (match v with Ok _ -> () | Error e -> err [ "store probe insert: " ^ e ]);
                  (dt, ins, res)
              | _ -> failwith ("scheduler probe: no kernel for " ^ Key.canonical k))
            misses
        in
        let runs_a f = Array.of_list (List.map f runs) in
        let run_s = runs_a (fun (dt, _, _) -> dt) in
        [
          med_m ~scale:ms "scheduler.run_one_ms" run_s;
          med_m ~scale:ms "store.insert_ms" (runs_a (fun (_, i, _) -> i));
        ]
        @ Wl_n4.search_counts
            ~seconds:(Array.fold_left ( +. ) 0. run_s)
            (List.map (fun (_, _, res) -> res) runs)
  in
  (* Protocol round trip on the served records of the stored keys. *)
  let text = Hashtbl.create 512 in
  List.iter
    (fun (_, k, e) ->
      Hashtbl.replace text (Key.canonical k) (Isa.Program.to_string Fixture.cfg e.Store.program, e))
    entries;
  let codec =
    List.filter_map
      (fun (s : Loadgen.sample) ->
        let k = st.key_of s.idx in
        match Hashtbl.find_opt text (Key.canonical k) with
        | None -> None
        | Some (kernel, e) ->
            let served =
              {
                P.status = "cached";
                source = Some s.source;
                canonical = Key.canonical k;
                kernel = Some kernel;
                length = Some e.Store.length;
                degraded = false;
                rung = 0;
                attempts = 0;
                elapsed = s.server;
                coalesced = false;
                error = None;
                retry_after = None;
              }
            in
            let dt, ok =
              timed_span ~parent "protocol.codec" (fun () ->
                  Result.is_ok (P.parse_request (P.request_line (P.Synth (k, P.default_params))))
                  && P.parse_response (P.response_line (P.Served served))
                     = Ok (P.Served served))
            in
            if not ok then err [ "protocol round trip changed a served record" ];
            Some dt)
      (List.filteri (fun i s -> i < 2000 && s.Loadgen.ok) (Array.to_list r.Loadgen.samples))
  in
  (* Server.handle in-process over the same stream prefix. *)
  let root2 = Filename.concat dir "inproc" in
  Fixture.copy fx root2;
  ignore (Store.write_warmset ~root:root2 st.warmset);
  let server =
    Spans.span ~parent "server.create" (fun _ ->
        Serve.Server.create
          {
            Serve.Server.socket_path = Filename.concat dir "unused.sock";
            root = root2;
            capacity = st.capacity;
            workers = 2;
            max_conns = 64;
            max_queue = 32;
            breaker_threshold = 3;
            breaker_cooldown = 5.0;
            drain_grace = 5.0;
          })
  in
  let handled = match shape with Hot -> 5000 | Churn -> 300 in
  let handle =
    Fun.protect
      ~finally:(fun () -> Serve.Server.destroy server)
      (fun () ->
        Array.init handled (fun i ->
            let k = st.key_of i in
            let dt, resp =
              timed_span ~parent "server.handle" (fun () ->
                  Serve.Server.handle server (P.Synth (k, P.default_params)))
            in
            (match resp with
            | P.Served { P.kernel = Some t; _ } -> err (check fx k t)
            | _ -> err [ "in-process handle: no kernel for " ^ Key.canonical k ]);
            dt))
  in
  ( !errors,
    [
      med_m ~scale:1. "store.recover_s" recover;
      med_m ~scale:ms "store.lookup_ms" lookups;
      certify "symbolic" Registry.Verify.certify_fast;
      certify "exact" Registry.Verify.certify;
      med_m ~scale:us "protocol.codec_us" (Array.of_list codec);
      med_m ~scale:us "server.handle_us" handle;
    ]
    @ miss_metrics )

(* Traced: the timed load runs half untraced, half traced (the p50
   difference is the tracing overhead); the per-layer numbers come from
   the traced half and from in-process probes after the daemon stops. *)
let measure_traced shape ~seed ~seconds =
  let fx = Fixture.get () in
  let st = stream shape fx seed in
  with_run_dir (fun dir ->
      let d, _ = start fx st ~dir ~name:"registry" ~reps:1 in
      let warm_errors = warm_up fx st d in
      let half = seconds /. 2. in
      let r1, b1, a1 = phase fx st d ~first:st.warm ~seconds:half ~parent:0 in
      Spans.enable ();
      let r2, b2, a2 =
        Spans.span "phase.socket" (fun parent ->
            phase fx st d ~first:r1.Loadgen.next ~seconds:half ~parent)
      in
      Daemon.shutdown d;
      let probe_errors, probe_metrics =
        Spans.span "phase.probe" (fun parent -> probes shape fx st r2 ~dir ~parent)
      in
      let p50 r = Stat.median (Loadgen.lats (Loadgen.quiet r)) *. ms in
      {
        Report.attempted = Array.length r1.Loadgen.samples + Array.length r2.Loadgen.samples;
        failed = failures r1 + failures r2;
        notes = [ note r2 (Loadgen.quiet r2) ];
        errors =
          warm_errors @ r1.Loadgen.errors @ r2.Loadgen.errors
          @ path_errors shape r1 b1 a1 @ path_errors shape r2 b2 a2 @ probe_errors;
        metrics =
          latency_metrics r2 b2 a2 @ probe_metrics
          @ [ Report.m "trace.overhead_ms" (p50 r2 -. p50 r1) ]
          @ Report.absent
              ("distance" :: "gc"
              :: (match shape with Hot -> [] | Churn -> [ "search.seq_s"; "search.par_speedup" ]));
      })
