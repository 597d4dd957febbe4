(* The synthesis daemon: request handling, coalescing, admission
   control, and the socket accept loop.

   Threading model: connection I/O runs on cheap [Thread]s (blocking
   reads release the runtime lock, so hundreds can sleep on sockets),
   CPU-bound searches run on the persistent [Pool] of domains, and every
   store access — lookup, insert, recover — is serialized under one
   mutex on the submitting thread, mirroring run_batch's rule that
   workers never touch the disk. The LRU has its own lock; lock order is
   always flights → store → lru, never the reverse (the breaker has its
   own lock and never takes any other, so it may be called from inside
   the flights critical section).

   Overload model, in admission order:

     connection ──▶ [conn budget] ──▶ request ──▶ [deadline still live?]
        ──▶ [breaker closed?] ──▶ [queue slot free?] ──▶ worker

   Every gate sheds with a *typed* response — "overloaded" or
   "circuit_open" with a retry_after hint — never by queueing forever or
   dropping the connection silently. SIGTERM/SIGINT flip the daemon into
   draining mode: stop accepting, shed the queued backlog, let running
   work finish against a drain deadline on the warped clock, then
   persist the LRU warm set (keys only) so a restart re-admits — and
   re-certifies — the same working set. *)

module Key = Registry.Key
module Store = Registry.Store
module Scheduler = Registry.Scheduler

type config = {
  socket_path : string;
  root : string;
  capacity : int;
  workers : int;
  max_conns : int;  (* concurrent connections before connection-level shed *)
  max_queue : int;  (* unclaimed pool jobs before request-level shed *)
  breaker_threshold : int;  (* consecutive poison outcomes before a key trips *)
  breaker_cooldown : float;  (* seconds open before a half-open probe *)
  drain_grace : float;  (* seconds drain waits for in-flight work *)
}

(* One in-flight synthesis: later identical requests park on the
   condition variable and share the leader's result. *)
type flight = {
  fm : Mutex.t;
  fc : Condition.t;
  mutable outcome : Protocol.served option;
}

type t = {
  cfg : config;
  lru : Lru.t;
  pool : Pool.t;
  breaker : Breaker.t;
  store_counters : Store.counters;
  store_mutex : Mutex.t;
  flights : (string, flight) Hashtbl.t;
  flight_mutex : Mutex.t;
  requests : int Atomic.t;
  coalesced : int Atomic.t;
  searches : int Atomic.t;
  inflight : int Atomic.t;
  recover_runs : int Atomic.t;
  torn_connections : int Atomic.t;
  connections : int Atomic.t;
  active_conns : int Atomic.t;
  shed_queue_full : int Atomic.t;
  shed_deadline : int Atomic.t;
  shed_circuit : int Atomic.t;
  shed_conn_budget : int Atomic.t;
  shed_draining : int Atomic.t;
  snapshot_restored : int Atomic.t;
  snapshot_written : int Atomic.t;
  stop : bool Atomic.t;
  draining : bool Atomic.t;
  drained : bool Atomic.t;  (* drain ran to completion exactly once *)
  started : float;
}

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* store_mutex must be held. *)
let recover_locked t =
  ignore (Store.recover ~counters:t.store_counters ~root:t.cfg.root ());
  Atomic.incr t.recover_runs

(* Warm restart: re-admit the snapshot's keys through the ordinary
   certified lookup path. The snapshot carries zero trust — a tampered
   or torn file can at worst name keys that miss or get quarantined. *)
let restore_warmset t =
  match Store.read_warmset ~root:t.cfg.root with
  | Error _ -> () (* torn, tampered, or absent: cold start *)
  | Ok keys ->
      let keys = List.filteri (fun i _ -> i < t.cfg.capacity) keys in
      (* The snapshot is MRU-first; admit LRU-first so recency survives
         the round trip. *)
      List.iter
        (fun key ->
          match
            Store.lookup ~counters:t.store_counters ~root:t.cfg.root key
          with
          | Store.Hit e ->
              Lru.add t.lru (Key.canonical key) e;
              Atomic.incr t.snapshot_restored
          | Store.Miss | Store.Quarantined _ -> ())
        (List.rev keys)

let create cfg =
  let t =
    {
      cfg;
      lru = Lru.create ~capacity:cfg.capacity;
      (* Every job passes through the queue on its way to a worker, so a
         queue bound below one slot would refuse all work outright. *)
      pool = Pool.create ~max_queue:(max 1 cfg.max_queue) ~workers:cfg.workers ();
      breaker =
        Breaker.create ~threshold:cfg.breaker_threshold
          ~cooldown:cfg.breaker_cooldown;
      store_counters = Store.fresh_counters ();
      store_mutex = Mutex.create ();
      flights = Hashtbl.create 16;
      flight_mutex = Mutex.create ();
      requests = Atomic.make 0;
      coalesced = Atomic.make 0;
      searches = Atomic.make 0;
      inflight = Atomic.make 0;
      recover_runs = Atomic.make 0;
      torn_connections = Atomic.make 0;
      connections = Atomic.make 0;
      active_conns = Atomic.make 0;
      shed_queue_full = Atomic.make 0;
      shed_deadline = Atomic.make 0;
      shed_circuit = Atomic.make 0;
      shed_conn_budget = Atomic.make 0;
      shed_draining = Atomic.make 0;
      snapshot_restored = Atomic.make 0;
      snapshot_written = Atomic.make 0;
      stop = Atomic.make false;
      draining = Atomic.make false;
      drained = Atomic.make false;
      started = Fault.Clock.now ();
    }
  in
  (* Crash recovery once at open, before the first request can load a
     torn entry; then the warm restart, through the same certified path. *)
  locked t.store_mutex (fun () ->
      recover_locked t;
      restore_warmset t);
  t

let destroy t = Pool.shutdown t.pool
let stopped t = Atomic.get t.stop
let draining t = Atomic.get t.draining

(* ---------- building served records ---------- *)

let kernel_text key p = Isa.Program.to_string (Key.config key) p

let served_of_entry ~source ~elapsed key (e : Store.entry) =
  {
    Protocol.status = "cached";
    source = Some source;
    canonical = Key.canonical key;
    kernel = Some (kernel_text e.Store.key e.Store.program);
    length = Some e.Store.length;
    degraded = false;
    rung = 0;
    attempts = 0;
    elapsed;
    coalesced = false;
    error = None;
    retry_after = None;
  }

let miss ~elapsed ?error key =
  {
    Protocol.status = "miss";
    source = None;
    canonical = Key.canonical key;
    kernel = None;
    length = None;
    degraded = false;
    rung = 0;
    attempts = 0;
    elapsed;
    coalesced = false;
    error;
    retry_after = None;
  }

(* Typed load-shedding responses. Each names its reason and hints how
   long to back off; none of them ever reaches a worker. *)
let shed ~status ~elapsed ~retry_after ~error key =
  {
    (miss ~elapsed ~error key) with
    Protocol.status;
    retry_after = Some retry_after;
  }

let overloaded ~elapsed ~retry_after ~error key =
  shed ~status:"overloaded" ~elapsed ~retry_after ~error key

let circuit_open ~elapsed ~retry_after key =
  shed ~status:"circuit_open" ~elapsed ~retry_after
    ~error:"circuit breaker open: recent attempts crashed or exhausted" key

let deadline_expired ~elapsed ~where key =
  {
    (miss ~elapsed ~error:(Printf.sprintf "deadline expired %s" where) key) with
    Protocol.status = "timed_out";
  }

(* ---------- request handling ---------- *)

let lookup_one t key =
  let start = Fault.Clock.now () in
  let canonical = Key.canonical key in
  match Lru.find t.lru canonical with
  | Some e -> served_of_entry ~source:"memory" ~elapsed:(Fault.Clock.now () -. start) key e
  | None ->
      locked t.store_mutex (fun () ->
          match Store.lookup ~counters:t.store_counters ~root:t.cfg.root key with
          | Store.Hit e ->
              (* The load above just re-certified through Certify.sorts:
                 admission is the certificate. *)
              Lru.add t.lru canonical e;
              served_of_entry ~source:"disk" ~elapsed:(Fault.Clock.now () -. start) key e
          | Store.Miss -> miss ~elapsed:(Fault.Clock.now () -. start) key
          | Store.Quarantined reason ->
              Lru.remove t.lru canonical;
              recover_locked t;
              miss ~elapsed:(Fault.Clock.now () -. start) ~error:reason key)

(* The leader's path: disk, then a pool search, then persist + admit.
   Breaker bookkeeping happens here, on the leader only — joiners share
   the outcome without double-counting it. Every exit settles the
   breaker exactly once: success on a hit or clean result, failure on a
   poison outcome, and abort on everything else (shed, expired, drained,
   unrelated error) — an admitted half-open probe that vanished without
   a verdict would otherwise leave the key rejecting forever. *)
let synth_leader t key (p : Protocol.synth_params) =
  let start = Fault.Clock.now () in
  let canonical = Key.canonical key in
  (* serve.overload: deterministic admission rejection, as if the queue
     were full — the chaos hook for exercising shed paths end to end. *)
  if Fault.fire Fault.Serve_overload then begin
    Atomic.incr t.shed_queue_full;
    Breaker.abort t.breaker canonical;
    overloaded
      ~elapsed:(Fault.Clock.now () -. start)
      ~retry_after:0.1 ~error:"request queue full (injected)" key
  end
  else
    let from_disk =
      locked t.store_mutex (fun () ->
          match Store.lookup ~counters:t.store_counters ~root:t.cfg.root key with
          | Store.Hit e ->
              Lru.add t.lru canonical e;
              Some (served_of_entry ~source:"disk" ~elapsed:(Fault.Clock.now () -. start) key e)
          | Store.Miss -> None
          | Store.Quarantined _ ->
              (* The broken entry is already aside; sweep for siblings and
                 fall through to a fresh synthesis. *)
              Lru.remove t.lru canonical;
              recover_locked t;
              None)
    in
    match from_disk with
    | Some served ->
        Breaker.success t.breaker canonical;
        served
    | None -> (
        Atomic.incr t.searches;
        let job () =
          (* Queue-wait comes out of the client's budget: the scheduler
             gets whatever is left of the deadline, never more than the
             requested per-attempt timeout. *)
          let timeout =
            match p.Protocol.deadline with
            | None -> p.Protocol.timeout
            | Some d ->
                let remaining = Float.max 0. (d -. Fault.Clock.now ()) in
                Some
                  (match p.Protocol.timeout with
                  | None -> remaining
                  | Some tmo -> Float.min tmo remaining)
          in
          Scheduler.run_one ~optimize:p.Protocol.optimize ~timeout
            ~retries:p.Protocol.retries ~backoff:p.Protocol.backoff
            ~budget:p.Protocol.budget key
        in
        match Pool.run ?deadline:p.Protocol.deadline t.pool job with
        | Error Pool.Worker_died ->
            Breaker.failure t.breaker canonical;
            {
              (miss ~elapsed:(Fault.Clock.now () -. start) ~error:"worker died mid-request" key)
              with
              Protocol.status = "crashed";
            }
        | Error Pool.Queue_full ->
            Atomic.incr t.shed_queue_full;
            Breaker.abort t.breaker canonical;
            overloaded
              ~elapsed:(Fault.Clock.now () -. start)
              ~retry_after:0.1 ~error:"request queue full" key
        | Error Pool.Expired_in_queue ->
            Atomic.incr t.shed_deadline;
            Breaker.abort t.breaker canonical;
            deadline_expired
              ~elapsed:(Fault.Clock.now () -. start)
              ~where:"while queued" key
        | Error Pool.Drained ->
            Atomic.incr t.shed_draining;
            Breaker.abort t.breaker canonical;
            overloaded
              ~elapsed:(Fault.Clock.now () -. start)
              ~retry_after:1.0 ~error:"server is draining" key
        | Error e ->
            Breaker.abort t.breaker canonical;
            {
              (miss ~elapsed:(Fault.Clock.now () -. start) ~error:(Printexc.to_string e) key)
              with
              Protocol.status = "failed";
            }
        | Ok r ->
            if Scheduler.poison_status r.Scheduler.status then
              Breaker.failure t.breaker canonical
            else Breaker.success t.breaker canonical;
            locked t.store_mutex (fun () ->
                match Scheduler.persist ~counters:t.store_counters ~root:t.cfg.root r with
                | Ok entry -> Lru.add t.lru canonical entry
                | Error _ -> ());
            Protocol.of_job r)

let synth_one t key p =
  let canonical = Key.canonical key in
  match Lru.find t.lru canonical with
  | Some e ->
      let start = Fault.Clock.now () in
      served_of_entry ~source:"memory" ~elapsed:(Fault.Clock.now () -. start) key e
  | None ->
      if Atomic.get t.draining then begin
        (* Warm hits above still serve during drain; new work does not. *)
        Atomic.incr t.shed_draining;
        overloaded ~elapsed:0. ~retry_after:1.0 ~error:"server is draining" key
      end
      else if
        match p.Protocol.deadline with
        | Some d -> Fault.Clock.now () > d
        | None -> false
      then begin
        (* Nobody is waiting for this answer; don't even coalesce. *)
        Atomic.incr t.shed_deadline;
        deadline_expired ~elapsed:0. ~where:"before dispatch" key
      end
      else begin
        let role =
          locked t.flight_mutex (fun () ->
              match Hashtbl.find_opt t.flights canonical with
              | Some fl ->
                  Atomic.incr t.coalesced;
                  `Join fl
              | None -> (
                  (* The breaker gates leaders only: joining an in-flight
                     synthesis adds no load, and when a half-open probe is
                     running, coalescing onto it beats rejecting. *)
                  match Breaker.admit t.breaker canonical with
                  | Breaker.Reject retry_after -> `Shed retry_after
                  | Breaker.Allow ->
                      let fl =
                        { fm = Mutex.create (); fc = Condition.create (); outcome = None }
                      in
                      Hashtbl.replace t.flights canonical fl;
                      `Lead fl))
        in
        match role with
        | `Shed retry_after ->
            Atomic.incr t.shed_circuit;
            circuit_open ~elapsed:0. ~retry_after key
        | `Join fl ->
            locked fl.fm (fun () ->
                while fl.outcome = None do
                  Condition.wait fl.fc fl.fm
                done;
                { (Option.get fl.outcome) with Protocol.coalesced = true })
        | `Lead fl ->
            let served =
              try synth_leader t key p
              with e ->
                (* The leader died without a verdict; if it was the
                   half-open probe, release the key (no-op when the
                   breaker was already settled before the raise). *)
                Breaker.abort t.breaker canonical;
                {
                  (miss ~elapsed:0. ~error:(Printexc.to_string e) key) with
                  Protocol.status = "failed";
                }
            in
            locked t.flight_mutex (fun () -> Hashtbl.remove t.flights canonical);
            locked fl.fm (fun () ->
                fl.outcome <- Some served;
                Condition.broadcast fl.fc);
            served
      end

(* Server-side batch fan-out: jobs spread across the worker pool under
   the same admission/deadline/breaker gates as single requests. Fan-out
   width is bounded by what the pool could possibly absorb (workers +
   queue slots), so one huge batch cannot monopolize admission; each job
   keeps its own flight, its own shed decision, its own result slot —
   per-job isolation, input order preserved. *)
let batch_fanout t keys p =
  let keys = Array.of_list keys in
  let n = Array.length keys in
  let results = Array.make n None in
  let width =
    max 1 (min n (t.cfg.workers + max 1 t.cfg.max_queue))
  in
  let next = Atomic.make 0 in
  let runner () =
    let rec claim () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let key = keys.(i) in
        let served =
          try synth_one t key p
          with e ->
            {
              (miss ~elapsed:0. ~error:(Printexc.to_string e) key) with
              Protocol.status = "failed";
            }
        in
        results.(i) <- Some served;
        claim ()
      end
    in
    claim ()
  in
  let threads = List.init width (fun _ -> Thread.create runner ()) in
  List.iter Thread.join threads;
  Array.to_list results
  |> List.mapi (fun i r ->
         match r with
         | Some s -> s
         | None -> miss ~elapsed:0. ~error:"batch job never ran" keys.(i))

let snapshot t =
  let ls = Lru.stats t.lru in
  let registry =
    locked t.store_mutex (fun () -> Store.counters_json t.store_counters)
  in
  let bc = Breaker.counters t.breaker in
  let breaker =
    Jsonv.Obj
      [
        ("threshold", Jsonv.Int t.cfg.breaker_threshold);
        ("cooldown_s", Jsonv.Float t.cfg.breaker_cooldown);
        ("trips", Jsonv.Int bc.Breaker.trips);
        ("half_opens", Jsonv.Int bc.Breaker.half_opens);
        ("recoveries", Jsonv.Int bc.Breaker.recoveries);
        ("rejections", Jsonv.Int bc.Breaker.rejections);
        ( "keys",
          Jsonv.Arr
            (List.map
               (fun (canonical, state, failures) ->
                 Jsonv.Obj
                   [
                     ("key", Jsonv.Str canonical);
                     ("state", Jsonv.Str state);
                     ("failures", Jsonv.Int failures);
                   ])
               (List.sort compare (Breaker.tracked t.breaker))) );
      ]
  in
  let sheds =
    Jsonv.Obj
      [
        ("queue_full", Jsonv.Int (Atomic.get t.shed_queue_full));
        ("deadline_expired", Jsonv.Int (Atomic.get t.shed_deadline));
        ("circuit_open", Jsonv.Int (Atomic.get t.shed_circuit));
        ("conn_budget", Jsonv.Int (Atomic.get t.shed_conn_budget));
        ("draining", Jsonv.Int (Atomic.get t.shed_draining));
      ]
  in
  let snapshot_block =
    Jsonv.Obj
      [
        ("restored", Jsonv.Int (Atomic.get t.snapshot_restored));
        ("written", Jsonv.Int (Atomic.get t.snapshot_written));
      ]
  in
  Jsonv.Obj
    [
      ( "serve",
        Jsonv.Obj
          [
            ("requests", Jsonv.Int (Atomic.get t.requests));
            ("cache_hits", Jsonv.Int ls.Lru.hits);
            ("cache_misses", Jsonv.Int ls.Lru.misses);
            ("coalesced", Jsonv.Int (Atomic.get t.coalesced));
            ("evictions", Jsonv.Int ls.Lru.evictions);
            ("inflight", Jsonv.Int (Atomic.get t.inflight));
            ("searches", Jsonv.Int (Atomic.get t.searches));
            ("recover_runs", Jsonv.Int (Atomic.get t.recover_runs));
            ("worker_deaths", Jsonv.Int (Pool.worker_deaths t.pool));
            ("torn_connections", Jsonv.Int (Atomic.get t.torn_connections));
            ("connections", Jsonv.Int (Atomic.get t.connections));
            ("active_conns", Jsonv.Int (Atomic.get t.active_conns));
            ("max_conns", Jsonv.Int t.cfg.max_conns);
            ("queued", Jsonv.Int (Pool.queued t.pool));
            ("queue_hwm", Jsonv.Int (Pool.queue_hwm t.pool));
            ("max_queue", Jsonv.Int t.cfg.max_queue);
            ("draining", Jsonv.Bool (Atomic.get t.draining));
            ("shed", sheds);
            ("breaker", breaker);
            ("snapshot", snapshot_block);
            ("lru_size", Jsonv.Int ls.Lru.size);
            ("lru_capacity", Jsonv.Int (Lru.capacity t.lru));
            ("workers", Jsonv.Int (Pool.size t.pool));
            ("uptime_s", Jsonv.Float (Fault.Clock.now () -. t.started));
          ] );
      ("registry", registry);
      ( "process",
        Jsonv.Obj
          [
            ("readdir_calls", Jsonv.Int (Store.readdir_calls ()));
            ("certifications", Jsonv.Int (Analysis.Certify.certifications ()));
            ("symbolic_proofs", Jsonv.Int (Analysis.Certify.symbolic_proofs ()));
            ("exact_fallbacks", Jsonv.Int (Analysis.Certify.exact_fallbacks ()));
          ] );
    ]

let handle t req =
  Atomic.incr t.requests;
  Atomic.incr t.inflight;
  Fun.protect
    ~finally:(fun () -> ignore (Atomic.fetch_and_add t.inflight (-1)))
    (fun () ->
      match req with
      | Protocol.Lookup key -> Protocol.Served (lookup_one t key)
      | Protocol.Synth (key, p) -> Protocol.Served (synth_one t key p)
      | Protocol.Batch (keys, p) -> Protocol.Jobs (batch_fanout t keys p)
      | Protocol.Stats -> Protocol.Snapshot (snapshot t)
      | Protocol.Shutdown ->
          Atomic.set t.stop true;
          Protocol.Goodbye)

(* ---------- drain ---------- *)

(* Crash-only exit: stop taking work, shed the queued backlog, give
   running jobs until the drain deadline (on the warped clock, so tests
   drive it with clock.warp instead of sleeping), then persist the warm
   set. Idempotent — the Shutdown op, SIGTERM, and run's epilogue can
   all request it. *)
let drain t =
  Atomic.set t.draining true;
  if not (Atomic.exchange t.drained true) then begin
    Pool.drain t.pool;
    let deadline = Fault.Clock.now () +. t.cfg.drain_grace in
    (* serve.drain_hang: a worker that never comes back — the grace
       period elapses instantly on the warped clock and drain abandons
       the straggler instead of hanging. *)
    if Fault.fire Fault.Serve_drain_hang then
      Fault.Clock.warp (t.cfg.drain_grace +. 1.);
    while Atomic.get t.inflight > 0 && Fault.Clock.now () < deadline do
      Thread.yield ();
      Fault.Clock.sleep_for 0.002
    done;
    match Store.write_warmset ~root:t.cfg.root (Lru.keys t.lru) with
    | Ok n -> Atomic.set t.snapshot_written n
    | Error _ -> ()
  end

(* ---------- socket layer ---------- *)

(* Wake the accept loop after the stop flag is up: a throwaway
   self-connection is the one portable way to unblock accept(2) early.
   During shutdown this races the listener teardown — the socket file
   may already be unlinked (ENOENT) or the listener closed/backlogged
   (ECONNREFUSED) — so every step tolerates every failure: a missed
   wake-up only costs one select tick, but an exception escaping here
   used to skip the socket-file cleanup entirely. *)
let wake_accept t =
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          try Unix.connect fd (Unix.ADDR_UNIX t.cfg.socket_path)
          with Unix.Unix_error _ -> ())

let serve_connection t fd =
  Atomic.incr t.connections;
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let rec loop () =
    (* serve.slow_client: a client that dribbles its request in. *)
    if Fault.fire Fault.Serve_slow_client then Fault.Clock.sleep_for 0.05;
    match input_line ic with
    | exception End_of_file -> ()
    | exception Sys_error _ -> ()
    | line ->
        let resp =
          match Protocol.parse_request line with
          | Error msg -> Protocol.Refused ("bad request: " ^ msg)
          | Ok req -> (
              try handle t req
              with e -> Protocol.Refused (Printexc.to_string e))
        in
        let wire = Protocol.response_line resp in
        if Fault.fire Fault.Serve_torn_connection then begin
          (* Write half the response and hang up mid-line. The client
             sees a protocol error; nothing server-side is dirtied —
             the store write (if any) already committed under its own
             fsync-before-rename discipline, the LRU entry is whole. *)
          Atomic.incr t.torn_connections;
          (try
             output_string oc (String.sub wire 0 (String.length wire / 2));
             flush oc
           with Sys_error _ -> ())
        end
        else begin
          (match output_string oc wire; flush oc with
          | () -> ()
          | exception Sys_error _ -> ());
          match resp with
          | Protocol.Goodbye -> wake_accept t
          | _ -> loop ()
        end
  in
  (try loop () with _ -> ());
  (* Close the descriptor exactly once. Both channels share [fd];
     closing the second channel would close the same fd {e number}
     again, and if the accept loop had already reused that number for a
     fresh connection, the double close would kill the new connection
     mid-handshake (observed as a spurious ECONNRESET under load). The
     input channel is left to the GC — its finalizer frees the buffer
     and never touches the descriptor. *)
  close_out_noerr oc;
  ignore (Atomic.fetch_and_add t.active_conns (-1))

(* Over the connection budget: answer with the typed overload response
   and close — the client learns to back off; nothing is silently
   dropped. *)
let shed_connection t fd =
  Atomic.incr t.shed_conn_budget;
  let oc = Unix.out_channel_of_descr fd in
  (try
     output_string oc (Protocol.response_line (Protocol.Overloaded 0.5));
     flush oc
   with Sys_error _ | Unix.Unix_error _ -> ());
  close_out_noerr oc

(* SIGTERM/SIGINT request a graceful drain. The handler only flips the
   flag — all real work happens on the accept loop's thread, which polls
   the flag every select tick. *)
let install_signal_handlers t =
  let request_drain _ = Atomic.set t.draining true in
  List.iter
    (fun signal ->
      try Sys.set_signal signal (Sys.Signal_handle request_drain)
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigterm; Sys.sigint ]

let run ?(on_ready = fun () -> ()) ?(handle_signals = false) t =
  (* A client that hangs up mid-response must surface as EPIPE on the
     write, never as SIGPIPE's default process death. Unconditional: a
     socket daemon that can be killed by any impatient client is not a
     daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  if handle_signals then install_signal_handlers t;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ());
  Unix.bind fd (Unix.ADDR_UNIX t.cfg.socket_path);
  Unix.listen fd 64;
  on_ready ();
  (* Select with a short tick instead of a bare blocking accept: the
     loop notices stop/drain flags (set by a signal handler or the
     Shutdown op) within one tick even if the wake-up self-connection
     loses its race. *)
  let rec accept_loop () =
    if not (Atomic.get t.stop || Atomic.get t.draining) then begin
      match Unix.select [ fd ] [] [] 0.05 with
      | [], _, _ -> accept_loop ()
      | _ -> (
          match Unix.accept fd with
          | cfd, _ ->
              if Atomic.get t.stop || Atomic.get t.draining then
                (try Unix.close cfd with Unix.Unix_error _ -> ())
              else if Atomic.get t.active_conns >= t.cfg.max_conns then begin
                shed_connection t cfd;
                accept_loop ()
              end
              else begin
                Atomic.incr t.active_conns;
                ignore (Thread.create (fun () -> serve_connection t cfd) ());
                accept_loop ()
              end
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
          | exception Unix.Unix_error _ -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | exception Unix.Unix_error _ -> ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      (* Socket-file cleanup must survive anything the loop throws. *)
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ());
      destroy t)
    (fun () ->
      accept_loop ();
      drain t)
