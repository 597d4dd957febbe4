(** The metrics registry: every counter the process exports is declared
    once, here or through {!counter}, and rendered by one function,
    {!to_json}.

    A {!group} is an ordered set of named entries, each one of:
    - a {e counter}, an integer cell updated by one [Atomic] operation;
    - a {e gauge}, a value read when the group renders (configuration,
      queue depth, uptime);
    - a nested group.

    {!to_json} renders a group as a JSON object whose keys appear in
    registration order, so a stats document's schema is the order its
    owner registered its cells in. Registration is meant for construction
    time, on one thread; updates and rendering are safe from any thread or
    domain and take no lock. A caller resolves each cell once, when it
    registers it, and keeps the {!counter}: the update path does no name
    lookup and allocates nothing. *)

type group
type counter

val create : unit -> group
(** A new empty group. *)

val counter : group -> string -> counter
(** Register a new counter, starting at 0, under [name]. Raises
    [Invalid_argument] if the group already holds [name]. *)

val gauge : group -> string -> (unit -> Jsonv.t) -> unit
(** Register a value that is read each time the group renders. Raises
    [Invalid_argument] if the group already holds [name]. *)

val group : group -> string -> group
(** Register and return a new nested group. Raises [Invalid_argument] if
    the group already holds [name]. *)

val incr : counter -> unit
val decr : counter -> unit
val add : counter -> int -> unit

val set : counter -> int -> unit
(** For a cell that records a last value rather than a running count. *)

val get : counter -> int

val to_json : group -> Jsonv.t
(** The group as a JSON object, entries in registration order. *)

val select : group -> string list -> Jsonv.t
(** The named top-level entries of the group, in the order given, as a
    JSON object. Raises [Not_found] for a name the group does not hold. *)

(** The process-wide group: counters that no instance owns, because the
    code that ticks them runs below every instance. All are monotone;
    compare readings taken before and after the work of interest. *)
module Process : sig
  val group : group
  (** Renders as
      [{"readdir_calls":..,"certifications":..,"symbolic_proofs":..,"exact_fallbacks":..}]. *)

  val readdir_calls : counter
  (** Directory listings the registry store made. A warm daemon hit makes
      none. *)

  val certifications : counter
  (** Exact [n!] checks ({!Analysis.Certify.exact}) run by this process,
      fallbacks included. A warm daemon hit runs none. *)

  val symbolic_proofs : counter
  (** Kernels {!Analysis.Certify.sorts} proved symbolically, without [n!]
      enumeration. *)

  val exact_fallbacks : counter
  (** [Unknown] symbolic verdicts that sent {!Analysis.Certify.sorts} to
      the exact check. Stays at zero on decidable workloads. *)
end
