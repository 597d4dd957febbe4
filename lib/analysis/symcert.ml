(* Symbolic execution over the order-poset domain. See symcert.mli for
   the soundness contract; the load-bearing invariants are:

   - A world's poset holds exactly the facts every concrete input that
     reaches the world satisfies: the base facts plus one branch fact per
     case-split cmp on its path. Conversely, any input consistent with
     the poset follows exactly this world's path (decided cmps agree by
     consistency, split cmps agree because the branch fact is in the
     poset, and movs/cmovs are deterministic once the flags are fixed) —
     so the worlds at any point cover all n! inputs, and a world's final
     register map is exact for every input consistent with its poset.

   - Renaming the input ids by any permutation maps reachable worlds to
     reachable worlds of the renamed input and preserves the final
     sortedness question, so deduplicating on the canonical
     (first-occurrence) renaming merges only verdict-equivalent worlds.

   - Refutations are confirmed by running the real machine before being
     reported, so Refuted is sound even if everything above is wrong. *)

type verdict =
  | Proved
  | Refuted of { input : int array; output : int array }
  | Unknown of string

type flag = Fnone | Flt | Fgt

type world = {
  regs : int array;  (* symbolic id per register, length n + m *)
  flag : flag;
  ord : Order.t;
  rep : int array;
      (* [rep.(c)] is the original input id (1-based) the world's
         canonical id [c] currently stands for — the composition of every
         renaming applied on this world's path. Maps counterexamples
         built in canonical space back to concrete initial inputs. *)
}

let default_max_worlds = 20_000

(* ------------------------------------------------------------------ *)
(* Canonicalization: rename input ids to first-occurrence order in the
   register map. Only called on worlds where every input id is still held
   by some register (a world that dropped an id is refuted on the spot),
   so the scan names all k - 1 input ids. *)

let canon k w =
  let rho = Array.make k (-1) in
  rho.(0) <- 0;
  let next = ref 1 in
  Array.iter
    (fun id ->
      if id <> 0 && rho.(id) < 0 then begin
        rho.(id) <- !next;
        incr next
      end)
    w.regs;
  if !next < k then invalid_arg "Symcert.canon: world dropped an input id";
  let rep = Array.make k 0 in
  for c = 0 to k - 1 do
    if rho.(c) >= 0 then rep.(rho.(c)) <- w.rep.(c)
  done;
  {
    regs = Array.map (fun id -> rho.(id)) w.regs;
    flag = w.flag;
    ord = Order.rename w.ord rho;
    rep;
  }

let world_key w =
  let b = Buffer.create 32 in
  Array.iter (fun id -> Buffer.add_char b (Char.chr id)) w.regs;
  Buffer.add_char b
    (match w.flag with Fnone -> 'n' | Flt -> 'l' | Fgt -> 'g');
  Buffer.add_string b (Order.key w.ord);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Counterexample construction. A linear extension of [ord] (optionally
   refined by one extra fact) ranks the input ids; [rep] routes each rank
   to the initial register the id started in. The result is a permutation
   of 1..n consistent with the world's poset, i.e. an input whose real
   execution reaches (an instance of) this world. *)

let input_of_extension ~n w ext =
  let input = Array.make n 0 in
  let rank = ref 0 in
  Array.iter
    (fun id ->
      if id <> 0 then begin
        incr rank;
        input.(w.rep.(id) - 1) <- !rank
      end)
    ext;
  input

(* Confirm on the real machine; a candidate that fails to confirm is a
   certifier bug and surfaces as Unknown, never as a bogus Refuted. *)
let confirm cfg p input =
  let output = Machine.Exec.run cfg p input in
  if Perms.is_identity output then None else Some (Refuted { input; output })

let refute_candidates cfg p w exts =
  let n = cfg.Isa.Config.n in
  List.find_map
    (fun ext -> confirm cfg p (input_of_extension ~n w ext))
    exts

(* ------------------------------------------------------------------ *)

let step_world w (i : Isa.Instr.t) =
  let open Isa.Instr in
  match i.op with
  | Mov ->
      let regs = Array.copy w.regs in
      regs.(i.dst) <- regs.(i.src);
      [ { w with regs } ]
  | Cmovl | Cmovg ->
      let fires =
        match (i.op, w.flag) with
        | Cmovl, Flt | Cmovg, Fgt -> true
        | _ -> false
      in
      if not fires then [ w ]
      else
        let regs = Array.copy w.regs in
        regs.(i.dst) <- regs.(i.src);
        [ { w with regs } ]
  | Cmp ->
      let a = w.regs.(i.dst) and b = w.regs.(i.src) in
      if a = b then [ { w with flag = Fnone } ]
      else (
        match Order.decided w.ord a b with
        | `Lt -> [ { w with flag = Flt } ]
        | `Gt -> [ { w with flag = Fgt } ]
        | `Unknown ->
            (* Case split: both outcomes are consistent, and the branch
               fact makes each refined world exact for its half. *)
            let ord_lt = Order.copy w.ord and ord_gt = Order.copy w.ord in
            if not (Order.add_lt ord_lt a b && Order.add_lt ord_gt b a) then
              invalid_arg "Symcert.step_world: inconsistent split";
            [
              { w with flag = Flt; ord = ord_lt };
              { w with flag = Fgt; ord = ord_gt };
            ])

(* An input id held by no register can never reappear (instructions only
   copy), so every input consistent with this world ends with that value
   missing from the output — refuted on any consistent input. *)
let dropped_id ~k w =
  let held = ref 1 in
  Array.iter (fun id -> held := !held lor (1 lsl id)) w.regs;
  let missing = ref None in
  for id = 1 to k - 1 do
    if !missing = None && !held land (1 lsl id) = 0 then missing := Some id
  done;
  !missing

(* Final-world verdict. For a live world the three cases are exhaustive
   and constructive:
   - chain proven -> every consistent input sorts;
   - some adjacent pair provably inverted, duplicated, or zero -> every
     consistent input fails;
   - some adjacent pair undecided -> refining the poset with the inverted
     fact stays consistent and yields an input that provably fails. *)
let judge_final cfg p w =
  let n = cfg.Isa.Config.n in
  let v i = w.regs.(i) in
  let zero = ref false and dup = ref false in
  for i = 0 to n - 1 do
    if v i = 0 then zero := true;
    for j = i + 1 to n - 1 do
      if v i = v j then dup := true
    done
  done;
  if !zero || !dup then
    (* Not a permutation of the inputs on any consistent input. *)
    match
      refute_candidates cfg p w
        [ Order.extension w.ord; Order.extension ~desc:true w.ord ]
    with
    | Some r -> r
    | None -> Unknown "unconfirmed counterexample (duplicate or zero output)"
  else begin
    let undecided = ref None in
    let inverted = ref false in
    for i = 0 to n - 2 do
      if not (Order.lt w.ord (v i) (v (i + 1))) then
        if Order.lt w.ord (v (i + 1)) (v i) then inverted := true
        else if !undecided = None then undecided := Some i
    done;
    if (not !inverted) && !undecided = None then Proved
    else
      let exts =
        if !inverted then
          [ Order.extension w.ord; Order.extension ~desc:true w.ord ]
        else
          (* Refine the poset with the inverted fact at the first
             undecided pair: any extension of the refinement is a
             consistent input whose output is out of order there. *)
          let i = Option.get !undecided in
          let refined = Order.copy w.ord in
          if Order.add_lt refined (v (i + 1)) (v i) then
            [ Order.extension refined; Order.extension ~desc:true refined ]
          else [ Order.extension w.ord ]
      in
      match refute_candidates cfg p w exts with
      | Some r -> r
      | None -> Unknown "unconfirmed counterexample (unproven chain)"
  end

let certify ?(max_worlds = default_max_worlds) cfg p =
  let n = cfg.Isa.Config.n and m = cfg.Isa.Config.m in
  let k = n + 1 in
  let initial =
    {
      regs = Array.init (n + m) (fun r -> if r < n then r + 1 else 0);
      flag = Fnone;
      ord = Order.create k;
      rep = Array.init k (fun c -> c);
    }
  in
  let exception Done of verdict in
  try
    let worlds = ref [ canon k initial ] in
    Array.iter
      (fun instr ->
        let seen = Hashtbl.create 64 in
        let out = ref [] in
        let count = ref 0 in
        List.iter
          (fun w ->
            List.iter
              (fun w' ->
                match dropped_id ~k w' with
                | Some _ -> (
                    (* Refuted mid-flight: confirm straight away on both
                       extension witnesses of the current poset. *)
                    match
                      refute_candidates cfg p w'
                        [
                          Order.extension w'.ord;
                          Order.extension ~desc:true w'.ord;
                        ]
                    with
                    | Some r -> raise (Done r)
                    | None ->
                        raise
                          (Done
                             (Unknown
                                "unconfirmed counterexample (dropped \
                                 input value)")))
                | None ->
                    let c = canon k w' in
                    let key = world_key c in
                    if not (Hashtbl.mem seen key) then begin
                      Hashtbl.add seen key ();
                      incr count;
                      if !count > max_worlds then
                        raise
                          (Done
                             (Unknown
                                (Printf.sprintf
                                   "world budget exceeded (%d live worlds)"
                                   !count)));
                      out := c :: !out
                    end)
              (step_world w instr))
          !worlds;
        worlds := List.rev !out)
      p;
    let unknown = ref None in
    List.iter
      (fun w ->
        match judge_final cfg p w with
        | Proved -> ()
        | Refuted _ as r -> raise (Done r)
        | Unknown _ as u -> if !unknown = None then unknown := Some u)
      !worlds;
    match !unknown with Some u -> u | None -> Proved
  with Done v -> v

(* ------------------------------------------------------------------ *)

let ints a = String.concat " " (Array.to_list (Array.map string_of_int a))

let verdict_name = function
  | Proved -> "proved"
  | Refuted _ -> "refuted"
  | Unknown _ -> "unknown"

let explain = function
  | Proved -> "proved: every symbolic world ends in a proven ascending chain"
  | Refuted { input; output } ->
      Printf.sprintf "refuted: on input [%s] the kernel produces [%s]"
        (ints input) (ints output)
  | Unknown reason -> Printf.sprintf "unknown: %s" reason
