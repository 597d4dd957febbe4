(** Bounded in-memory LRU over certified registry entries.

    Keyed by {!Registry.Key.canonical} strings. A hit costs a hashtable
    probe and two list splices — no disk I/O, no directory scan, and no
    [n!] re-certification, because admission is gated on a certificate:
    the only callers of {!add} hold an entry that was certified moments
    before (a {!Registry.Store.lookup} hit re-certifies on load; a fresh
    synthesis certifies before {!Registry.Store.insert} publishes).
    Crash safety is inherited from the store underneath — the cache holds
    nothing the quarantine path has not already vetted, and a quarantine
    event invalidates the key via {!remove}.

    Thread-safe: every operation takes the cache's internal mutex, so
    connection threads and the serving loop share one instance. *)

type t

val create :
  capacity:int ->
  hits:Obs.counter ->
  misses:Obs.counter ->
  evictions:Obs.counter ->
  t
(** At most [capacity] entries; adding past that evicts the least
    recently used. [capacity = 0] disables caching ({!add} is a no-op);
    negative raises [Invalid_argument]. {!find} ticks [hits] or [misses];
    an eviction ticks [evictions]. The owner registers the three cells,
    so they render wherever its stats document puts them. *)

val find : t -> string -> Registry.Store.entry option
(** Lookup by canonical key, bumping the entry to most-recent and the
    [hits]/[misses] cell. *)

val add : t -> string -> Registry.Store.entry -> unit
(** Admit a just-certified entry (replacing any previous value for the
    key), evicting the least-recent entry when over capacity. *)

val remove : t -> string -> unit
(** Invalidate one key (quarantine events; absent keys are fine). *)

val length : t -> int
val capacity : t -> int

val contents : t -> string list
(** Canonical keys, most recently used first (test introspection). *)

val keys : t -> Registry.Key.t list
(** Registry keys, most recently used first — the warm set a draining
    server persists via {!Registry.Store.write_warmset}. *)
