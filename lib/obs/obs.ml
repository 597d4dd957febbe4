type counter = int Atomic.t
type entry = Counter of counter | Gauge of (unit -> Jsonv.t) | Group of group

(* Newest entry first; [to_json] reverses. *)
and group = { mutable entries : (string * entry) list }

let create () = { entries = [] }

let register g name e =
  if List.mem_assoc name g.entries then
    invalid_arg (Printf.sprintf "Obs: %S is already registered in this group" name);
  g.entries <- (name, e) :: g.entries

let counter g name =
  let c = Atomic.make 0 in
  register g name (Counter c);
  c

let gauge g name read = register g name (Gauge read)

let group g name =
  let child = create () in
  register g name (Group child);
  child

let incr = Atomic.incr
let decr = Atomic.decr
let add c n = ignore (Atomic.fetch_and_add c n)
let set = Atomic.set
let get = Atomic.get

let rec render = function
  | Counter c -> Jsonv.Int (Atomic.get c)
  | Gauge read -> read ()
  | Group g -> to_json g

and to_json g = Jsonv.Obj (List.rev_map (fun (name, e) -> (name, render e)) g.entries)

let select g names =
  Jsonv.Obj (List.map (fun name -> (name, render (List.assoc name g.entries))) names)

module Process = struct
  let group = create ()
  let readdir_calls = counter group "readdir_calls"
  let certifications = counter group "certifications"
  let symbolic_proofs = counter group "symbolic_proofs"
  let exact_fallbacks = counter group "exact_fallbacks"
end
