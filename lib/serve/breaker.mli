(** Per-key poison circuit breaker.

    A key whose synthesis reliably crashes a worker or exhausts its
    state budget would otherwise be retried forever by every client —
    each retry burning a pool worker for the full timeout. The breaker
    tracks {e consecutive} poison outcomes per {!Registry.Key.canonical}
    string:

    {v
    Closed ──── threshold consecutive failures ────▶ Open
    Open ────── cooldown elapses (warped clock) ───▶ Half_open
    Half_open ─ probe succeeds ────────────────────▶ Closed (recovery)
    Half_open ─ probe fails ───────────────────────▶ Open   (re-trip)
    v}

    While [Open], {!admit} fast-fails with a retry_after hint and no
    worker is touched. [Half_open] admits exactly one probe. Any success
    — including a disk hit — resets the key to [Closed]. All time is
    read from {!Fault.Clock}, so every transition is deterministic under
    [clock.warp] fault plans. *)

type t

type verdict =
  | Allow
  | Reject of float  (** Fast-fail, with a retry_after hint in seconds. *)

val create : threshold:int -> cooldown:float -> Obs.group -> t
(** Trip a key open after [max 1 threshold] consecutive failures; admit
    a half-open probe after [cooldown] seconds on the warped clock. The
    breaker registers its stats block into the group, in this order: the
    configured [threshold] and [cooldown_s], the [trips], [half_opens],
    [recoveries] and [rejections] counters, and [keys], every tracked key
    as [{"key","state","failures"}], sorted. *)

val admit : t -> string -> verdict
(** Gate one request for the canonical key. May transition the key from
    [Open] to [Half_open] (admitting the caller as the probe). *)

val success : t -> string -> unit
(** The key served (cache, disk, or search): reset it to [Closed],
    counting a recovery if it was tripped. *)

val failure : t -> string -> unit
(** One poison outcome (worker death, crash, exhaustion). Trips the key
    at the threshold; a half-open probe failure re-trips immediately. *)

val abort : t -> string -> unit
(** The admitted request resolved without exercising the key — shed at
    the queue, expired while queued, drained, or lost to an unrelated
    error. If it was the half-open probe, the key returns to [Open] with
    a fresh cooldown (neither a trip nor a recovery) so a later request
    can probe again; in any other phase this is a no-op. Every leader
    exit must call exactly one of {!success}, {!failure}, or {!abort},
    or a [Half_open] key would reject all comers forever. *)

val tracked : t -> (string * string * int) list
(** Every key the breaker currently tracks, as
    [(canonical, "closed" | "open" | "half_open", consecutive_failures)]
    — the stats-snapshot view. Unordered. *)
