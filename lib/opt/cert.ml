type t = { pass : string; before : Isa.Program.t; after : Isa.Program.t }

let ints a = String.concat " " (Array.to_list (Array.map string_of_int a))

let discharge cfg { pass; before; after } =
  (* Two independent proofs. Equivalence already implies the output sorts
     whenever the input does; re-certifying anyway means a bug in either
     check is caught by the other. The sortedness proof goes first so a
     rewrite that breaks a sorting kernel is refused with the certifier's
     counterexample line. *)
  match
    if Result.is_ok (Analysis.Certify.sorts cfg before) then
      Analysis.Certify.sorts cfg after
    else Ok ()
  with
  | Error line ->
      Error
        (Printf.sprintf
           "pass %s: the rewrite no longer certifies as a sorting kernel \
            although the input did: %s"
           pass line)
  | Ok () -> (
      match Analysis.Certify.equivalent cfg before after with
      | Ok () -> Ok ()
      | Error { input; out_a; out_b } ->
          Error
            (Printf.sprintf
               "pass %s is not behavior-preserving: on input [%s] the \
                rewrite produces [%s] where the original produces [%s]"
               pass (ints input) (ints out_b) (ints out_a)))
