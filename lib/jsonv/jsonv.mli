(** The repository's one JSON module: a value type, a compact renderer
    and a recursive-descent parser.

    Every JSON document the libraries, the CLI and the bench write is
    built as a {!t} and rendered by {!to_string}, and every document they
    read goes through {!parse}; no other module escapes a string or
    prints a float into JSON. The library depends on nothing (the
    container has no JSON package), so it sits below every other library.
    The parser covers RFC 8259 minus surrogate pairing, which the
    renderer never produces. *)

type t =
  | Null
  | Bool of bool
  | Int of int  (** Number literals without a fraction or exponent. *)
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one JSON value; rejects trailing garbage. Error messages carry a
    0-based byte offset. *)

val to_string : t -> string
(** Compact rendering, no whitespace. Strings escape the double quote,
    the backslash and control characters ([\n], [\r], [\t], otherwise
    [\u00XX]); other bytes pass through. Floats: an integral value below
    [1e15] in magnitude prints as [%.1f] ([3.0]); any other finite value
    prints as [%.9g] when that parses back to the same float and as
    [%.17g] otherwise, so every finite float round-trips bit for bit;
    [infinity] and [neg_infinity] clamp to [1e308] and [-1e308], and [nan]
    to [0.0] (JSON has no inf/nan). The output always passes {!parse}. *)

val member : string -> t -> t option
(** [member k (Obj ...)] is the first binding of [k], if any; [None] on
    non-objects. *)

val to_int : t -> (int, string) result
(** Accepts [Int] and integral [Float]. *)

val to_float : t -> (float, string) result
val to_str : t -> (string, string) result
val to_list : t -> (t list, string) result
