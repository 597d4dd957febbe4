type outcome = { symbolic : Symcert.verdict; result : (unit, string) result }
type difference = { input : int array; out_a : int array; out_b : int array }

let symbolic_counter = Atomic.make 0
let fallback_counter = Atomic.make 0
let exact_counter = Atomic.make 0
let symbolic_proofs () = Atomic.get symbolic_counter
let exact_fallbacks () = Atomic.get fallback_counter
let certifications () = Atomic.get exact_counter

let ints a = String.concat " " (Array.to_list (Array.map string_of_int a))

let fails p input output =
  Error
    (Printf.sprintf "kernel of length %d fails on input [%s]: produced [%s]"
       (Isa.Program.length p) (ints input) (ints output))

let exact cfg p =
  Atomic.incr exact_counter;
  match Machine.Exec.counterexample cfg p with
  | None -> Ok ()
  | Some input -> fails p input (Machine.Exec.run cfg p input)

let decide ?max_worlds cfg p =
  let symbolic = Symcert.certify ?max_worlds cfg p in
  let result =
    match symbolic with
    | Symcert.Proved ->
        Atomic.incr symbolic_counter;
        Ok ()
    | Symcert.Refuted { input; output } -> fails p input output
    | Symcert.Unknown _ ->
        Atomic.incr fallback_counter;
        exact cfg p
  in
  { symbolic; result }

let sorts ?max_worlds cfg p = (decide ?max_worlds cfg p).result

let equivalent cfg a b =
  let out p perm =
    Machine.Assign.run cfg p (Machine.Assign.of_permutation cfg perm)
  in
  let differs perm =
    Machine.Assign.perm_key cfg (out a perm)
    <> Machine.Assign.perm_key cfg (out b perm)
  in
  match List.find_opt differs (Perms.all cfg.Isa.Config.n) with
  | None -> Ok ()
  | Some input ->
      let values p = Machine.Assign.value_regs cfg (out p input) in
      Error { input; out_a = values a; out_b = values b }
