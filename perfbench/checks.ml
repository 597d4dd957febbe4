(* Output checks and path assertions. Each returns the list of what went
   wrong; an empty list passes. None of them trusts the program's own
   certifier: kernels are run on all n! permutations by
   [Machine.Exec.sorts_all_permutations], not by the symbolic path the
   daemon uses. *)

(* A served kernel: parses, sorts every permutation, and has the length
   recorded when the fixture was built. *)
let kernel cfg ~expected_len text =
  match Isa.Program.of_string cfg text with
  | Error e -> [ "kernel does not parse: " ^ e ]
  | Ok p ->
      (if Machine.Exec.sorts_all_permutations cfg p then []
       else [ "kernel fails the exact n! sorting check" ])
      @
      if Isa.Program.length p = expected_len then []
      else
        [
          Printf.sprintf "kernel has %d instructions, the fixture recorded %d"
            (Isa.Program.length p) expected_len;
        ]

type pins = { length : int; expanded : int; generated : int }

(* The headline n=4 (III) search: 20 instructions, proved optimal by the
   level-synchronous engine, with these exact counts. *)
let n4_pins = { length = 20; expanded = 259103; generated = 6964973 }

let search cfg pins (r : Search.result) =
  let pinned what want got =
    if want = got then []
    else [ Printf.sprintf "%s = %d, pinned %d" what got want ]
  in
  (match r.Search.programs with
  | [] -> [ "search returned no program" ]
  | p :: _ ->
      kernel cfg ~expected_len:pins.length
        (Isa.Program.to_string cfg p))
  @ (match r.Search.optimal_length with
    | Some l -> pinned "optimal_length" pins.length l
    | None -> [ "search reports no optimal_length" ])
  @ pinned "expanded" pins.expanded r.Search.stats.Search.expanded
  @ pinned "generated" pins.generated r.Search.stats.Search.generated

(* Counter deltas of the daemon across a timed phase. *)
type deltas = {
  requests : int;
  memory : int;  (** Responses with source "memory". *)
  disk : int;
  search : int;
  inserted : int;
  evictions : int;
  searches : int;
  shed : int;
  readdir_calls : int;
  certifications : int;
  symbolic_proofs : int;
}

(* serve-hot: every answer from the LRU; the store, search and certify
   layers do nothing while the phase runs. *)
let hot_path d =
  let zero what v =
    if v = 0 then [] else [ Printf.sprintf "%s moved by %d during the warm phase" what v ]
  in
  (if d.memory = d.requests && d.requests > 0 then []
   else
     [
       Printf.sprintf "%d of %d answers came from memory (all must)" d.memory d.requests;
     ])
  @ zero "readdir_calls" d.readdir_calls
  @ zero "certifications" d.certifications
  @ zero "symbolic_proofs" d.symbolic_proofs
  @ zero "searches" d.searches
  @ zero "shed" d.shed

(* serve-churn: about 9 reads (disk or memory hits) to 1 never-seen key,
   each miss searched and inserted, the LRU evicting, nothing shed. *)
let churn_path d =
  let miss = float d.search /. float (max 1 d.requests) in
  (if miss >= 0.05 && miss <= 0.15 then []
   else [ Printf.sprintf "miss share %.3f is off the designed 0.1" miss ])
  @ (if d.memory + d.disk + d.search = d.requests then []
     else [ "some answers were neither memory, disk nor search" ])
  @ (if d.disk > 0 && d.memory > 0 && d.search > 0 then []
     else
       [
         Printf.sprintf "a path went unused: memory %d, disk %d, search %d" d.memory
           d.disk d.search;
       ])
  @ (if d.inserted = d.search then []
     else [ Printf.sprintf "%d misses but %d inserts" d.search d.inserted ])
  @ (if d.evictions > 0 then [] else [ "the LRU never evicted" ])
  @ if d.shed = 0 then [] else [ Printf.sprintf "%d requests shed" d.shed ]
