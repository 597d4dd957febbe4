(* In-memory span recorder for the traced run.

   A span is one call into a layer of the program, timed from the
   benchmark side: name, start, end, the span that caused it, and the
   request id it served. Spans are kept in memory and written out once,
   when the run ends. With tracing off, [span] is a direct call. *)

type t = {
  id : int;
  name : string;  (** ["<layer>.<call>"], e.g. ["store.lookup"]. *)
  parent : int;  (** 0 for a root span. *)
  rid : int;  (** Request id, -1 outside a request. *)
  start : float;
  stop : float;
}

let on = ref false
let lock = Mutex.create ()
let recorded : t list ref = ref []
let next_id = Atomic.make 1

let enable () = on := true

(* [span name f] runs [f id] inside a span named [name]; [id] is the
   parent to give nested spans. *)
let span ?(parent = 0) ?(rid = -1) name f =
  if not !on then f 0
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let start = Fault.Clock.now () in
    let close () =
      let s = { id; name; parent; rid; start; stop = Fault.Clock.now () } in
      Mutex.protect lock (fun () -> recorded := s :: !recorded)
    in
    match f id with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

let all () = Mutex.protect lock (fun () -> List.rev !recorded)

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Seconds of [s] not covered by the union of its children's intervals. *)
let self_time s children =
  let iv =
    List.sort compare
      (List.map (fun c -> (Float.max s.start c.start, Float.min s.stop c.stop)) children)
  in
  let covered, _ =
    List.fold_left
      (fun (acc, upto) (a, b) ->
        let a = Float.max a upto in
        if b > a then (acc +. (b -. a), b) else (acc, upto))
      (0., s.start) iv
  in
  Float.max 0. (s.stop -. s.start -. covered)

(* Self time summed per layer (the part of [name] before the first dot). *)
let self_by_layer spans =
  let kids = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add kids s.parent s) spans;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let l = layer s.name in
      let prev = Option.value ~default:0. (Hashtbl.find_opt acc l) in
      Hashtbl.replace acc l (prev +. self_time s (Hashtbl.find_all kids s.id)))
    spans;
  fun l -> Option.value ~default:0. (Hashtbl.find_opt acc l)

(* Microseconds one span costs the caller, measured on empty spans. *)
let cost_us () =
  let reps = 20_000 in
  let t0 = Fault.Clock.now () in
  for _ = 1 to reps do
    span "trace.empty" (fun _ -> ())
  done;
  let dt = Fault.Clock.now () -. t0 in
  Mutex.protect lock (fun () ->
      recorded := List.filter (fun s -> s.name <> "trace.empty") !recorded);
  dt /. float reps *. 1e6

let write path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"parent\":%d,\"rid\":%d,\"start\":%.9f,\"end\":%.9f}\n"
            s.id s.name s.parent s.rid s.start s.stop)
        spans)
