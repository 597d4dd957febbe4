type outcome = { symbolic : Symcert.verdict; result : (unit, string) result }
type difference = { input : int array; out_a : int array; out_b : int array }

let ints a = String.concat " " (Array.to_list (Array.map string_of_int a))

let fails p input output =
  Error
    (Printf.sprintf "kernel of length %d fails on input [%s]: produced [%s]"
       (Isa.Program.length p) (ints input) (ints output))

let exact cfg p =
  Obs.incr Obs.Process.certifications;
  match Machine.Exec.counterexample cfg p with
  | None -> Ok ()
  | Some input -> fails p input (Machine.Exec.run cfg p input)

let decide ?max_worlds cfg p =
  let symbolic = Symcert.certify ?max_worlds cfg p in
  let result =
    match symbolic with
    | Symcert.Proved ->
        Obs.incr Obs.Process.symbolic_proofs;
        Ok ()
    | Symcert.Refuted { input; output } -> fails p input output
    | Symcert.Unknown _ ->
        Obs.incr Obs.Process.exact_fallbacks;
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
