(* Quickstart: synthesize a sorting kernel for 3 values, print it, and run
   it on a concrete input.

     dune exec examples/quickstart.exe *)

let () =
  let n = 3 in
  (* One call: the paper's best enumerative configuration, result verified
     on all n! permutations. *)
  match Search.synthesize n with
  | None -> prerr_endline "synthesis failed"
  | Some kernel ->
      let cfg = Isa.Config.default n in
      Printf.printf "Synthesized a %d-instruction branchless sorting kernel:\n\n"
        (Array.length kernel);
      print_endline (Isa.Program.to_string cfg kernel);
      Printf.printf "\nAs x86-64 assembly:\n\n%s\n" (Isa.Program.to_x86 cfg kernel);
      (* Execute it on an arbitrary input (the ISA is constant-free, so
         correctness on permutations extends to any integers). *)
      let input = [| 1047; -3; 512 |] in
      let output = Machine.Exec.run cfg kernel input in
      Printf.printf "\nkernel [%s] = [%s]\n"
        (String.concat "; " (Array.to_list (Array.map string_of_int input)))
        (String.concat "; " (Array.to_list (Array.map string_of_int output)));
      (* The kernel is one instruction shorter than the classical sorting
         network implementation. *)
      let network = Sortnet.to_kernel cfg (Sortnet.optimal n) in
      Printf.printf
        "\nsorting-network kernel: %d instructions — the synthesizer saved %d\n"
        (Array.length network)
        (Array.length network - Array.length kernel)
