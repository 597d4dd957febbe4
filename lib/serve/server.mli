(** The synthesis daemon.

    A long-lived process that owns one registry root and serves kernel
    requests over a Unix domain socket ({!Protocol}). Three layers:

    - {b Memory}: a bounded {!Lru} over certified entries. A warm hit
      costs a hashtable probe — zero directory scans and zero [n!]
      re-certifications, provable from the [stats] deltas of
      {!Registry.Store.readdir_calls} and
      {!Analysis.Certify.certifications}.
    - {b Disk}: the sharded {!Registry.Store}, every access serialized
      on the connection threads under one mutex (workers never touch
      the disk, exactly like [run_batch]). {!Registry.Store.recover}
      runs once at open and again after any quarantine event.
    - {b Search}: a persistent {!Pool} of domains running
      {!Registry.Scheduler.run_one}, so a daemon miss gets the same
      degradation ladder, backoff, and deadline plumbing as a batch job,
      and is stored through the same {!Registry.Scheduler.persist}.

    Identical concurrent misses are {e coalesced}: one search runs, the
    other requests park on the leader's flight and share its result
    (their responses carry [coalesced:true]).

    Overload model, in admission order — every gate sheds with a typed
    response, never by queueing forever or dropping silently:

    {v
    connection ─▶ [conn budget] ─▶ request ─▶ [deadline live?]
       ─▶ [breaker closed?] ─▶ [queue slot?] ─▶ worker
    v}

    - Over [max_conns] concurrent connections: {!Protocol.Overloaded}.
    - A request whose propagated [deadline] already passed (or passes
      while queued): ["timed_out"], never dispatched to a worker.
    - A key with [breaker_threshold] consecutive poison outcomes:
      ["circuit_open"] ({!Breaker}), half-opening after the cooldown.
    - A full worker queue ([max_queue] waiting jobs): ["overloaded"]
      with a retry_after hint.

    Graceful drain: SIGTERM/SIGINT (via [run ~handle_signals:true]), the
    [Shutdown] op, and {!drain} all flip the daemon into draining mode —
    stop accepting, shed the queued backlog, give in-flight work until
    [drain_grace] seconds on the warped clock, then persist the LRU warm
    set (keys only) via {!Registry.Store.write_warmset}. A restart
    re-admits the snapshot through the ordinary certified lookup path,
    so a tampered snapshot cannot bypass certification.

    Failure model: the [serve.torn_connection] fault site hangs up
    mid-response (client-visible protocol error, server state untouched),
    [serve.slow_client] stalls a read, [serve.worker_death] kills the
    job — never the pool. [serve.overload] forces an admission shed,
    [serve.queue_stall] simulates a long queue wait (clock warp at
    claim), [serve.snapshot_torn] tears the warm-set write, and
    [serve.drain_hang] burns the drain grace instantly. *)

type config = {
  socket_path : string;
  root : string;  (** Registry root this daemon owns. *)
  capacity : int;  (** LRU capacity; [0] disables the memory layer. *)
  workers : int;  (** Search domains ([max 1]). *)
  max_conns : int;  (** Concurrent connections before connection shed. *)
  max_queue : int;  (** Unclaimed pool jobs before request shed ([max 1]). *)
  breaker_threshold : int;  (** Consecutive poison outcomes to trip a key. *)
  breaker_cooldown : float;  (** Seconds open before a half-open probe. *)
  drain_grace : float;  (** Seconds drain waits for in-flight work. *)
}

type t

val create : config -> t
(** Open the registry (running crash recovery, then the warm-set
    restore) and spawn the worker pool. No socket yet — {!handle} works
    in-process, which is how the tests drive the server. *)

val handle : t -> Protocol.request -> Protocol.response
(** Serve one request. Thread-safe; never raises. [Shutdown] flips the
    stop flag and answers [Goodbye]. *)

val stopped : t -> bool

val draining : t -> bool

val drain : t -> unit
(** Enter draining mode and run the drain to completion: shed the
    queued backlog, wait for in-flight work until [drain_grace] seconds
    on the warped {!Fault.Clock}, persist the warm-set snapshot.
    Idempotent; {!run} calls it on the way out. *)

val snapshot : t -> Jsonv.t
(** The [stats] response body: the [serve] block (request/cache/coalesce
    counters, queue depth + high-water mark, shed counts by reason, the
    breaker block with per-key state, snapshot restored/written, LRU
    occupancy, uptime), the session's [registry] counters, and the
    process-wide [readdir_calls] / [certifications] monotone counters. *)

val run : ?on_ready:(unit -> unit) -> ?handle_signals:bool -> t -> unit
(** Bind the socket, call [on_ready], and accept until a [Shutdown]
    request lands or draining begins. One thread per connection; a
    connection serves any number of newline-delimited requests; over
    [max_conns], new connections get one {!Protocol.Overloaded} line.
    With [handle_signals] (default false — tests install none), SIGTERM
    and SIGINT trigger a graceful drain. Runs {!drain}, unlinks the
    socket, and joins the worker pool before returning. *)

val destroy : t -> unit
(** Join the worker pool (for in-process users that never call {!run}).
    Idempotent. *)
