(** Search observability: counters, timeline, per-level breakdown, and a
    machine-readable JSON snapshot.

    Every engine populates one {!t} per run (exposed as
    [Search.result.stats]). {!to_json} builds the snapshot as a {!Jsonv.t};
    render it with {!Jsonv.to_string} and read it back with
    {!Jsonv.parse}. *)

type trace_point = {
  t : float;  (** Seconds since the search started. *)
  open_states : int;
  solutions_found : int;
}

type level_stat = {
  depth : int;  (** Depth of the expanded nodes. *)
  nodes_expanded : int;  (** States of this depth processed. *)
  succs_generated : int;
      (** Successors built from them (final states included). *)
  succs_kept : int;
      (** Non-final successors that survived every vetting stage. *)
  finals_found : int;  (** Final successors (they bypass vetting). *)
  succs_deduped : int;  (** Successors dropped as already seen. *)
  cut_pruned : int;
  viability_pruned : int;
  bound_pruned : int;
  open_after : int;
      (** Level engines: surviving distinct states entering depth
          [depth + 1]. A*: states pushed onto the heap at depth
          [depth + 1] (cumulative pushes, not a net count). *)
}
(** Prune/expansion breakdown for one search depth. The vetting buckets
    are mutually exclusive and exhaustive:
    [succs_generated = succs_kept + finals_found + cut_pruned +
    viability_pruned + bound_pruned] holds at every depth, for every
    engine. *)

type t = {
  expanded : int;  (** States popped / processed. *)
  generated : int;  (** Successor states built. *)
  deduped : int;  (** Successors dropped as already seen. *)
  pruned_cut : int;
  pruned_viability : int;
  pruned_bound : int;
  max_open : int;
  elapsed : float;
  timeline : trace_point list;  (** Oldest first. *)
  levels : level_stat list;  (** Shallowest first. *)
}

val to_json : ?label:string -> ?extra:(string * Jsonv.t) list -> t -> Jsonv.t
(** The stats snapshot as a JSON object:
    [{"label": ..., "counters": {...}, "timeline": [...], "levels": [...]}].
    The [label] field is omitted when not given. Each [(name, value)] in
    [extra] is appended as an additional top-level field (this is how the
    registry's hit/miss/quarantine counters flow into the snapshot).
    Floats ([elapsed_s], timeline [t]) follow {!Jsonv.to_string}: they
    round-trip bit for bit. *)
