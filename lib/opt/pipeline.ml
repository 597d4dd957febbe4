type delta = {
  pass : string;
  round : int;
  instructions_before : int;
  instructions_after : int;
  cycles_before : int;
  cycles_after : int;
  critical_before : int;
  critical_after : int;
}

type refusal = { pass : string; round : int; reason : string }

type report = {
  optimized : Isa.Program.t;
  deltas : delta list;
  refusals : refusal list;
  rounds : int;
  certified : bool;
}

let max_rounds = 8

(* The chaos hook: mutate a proposal into something semantically wrong so
   the certificate must refuse it. Appending "mov r1 r2" clobbers a value
   register, which no sorting kernel's output survives. *)
let sabotage cfg proposal =
  if Isa.Config.nregs cfg >= 2 then Isa.Program.append proposal (Isa.Instr.mov 0 1)
  else proposal

let run ?(passes = Passes.all) cfg p =
  let current = ref p in
  let deltas = ref [] in
  let refusals = ref [] in
  let round = ref 0 in
  let changed = ref true in
  while !changed && !round < max_rounds do
    incr round;
    changed := false;
    List.iter
      (fun (pass : Passes.pass) ->
        let before = !current in
        let proposal = pass.apply cfg before in
        let proposal =
          if Fault.fire Fault.Opt_break_pass then sabotage cfg proposal
          else proposal
        in
        if not (Isa.Program.equal proposal before) then begin
          let ib = Array.length before and ia = Array.length proposal in
          let cb = Perf.Cost.simulated_cycles cfg before
          and ca = Perf.Cost.simulated_cycles cfg proposal in
          if ia > ib || ca > cb then
            refusals :=
              {
                pass = pass.name;
                round = !round;
                reason =
                  Printf.sprintf
                    "cost gate: %d instructions / %d cycles would become %d / %d"
                    ib cb ia ca;
              }
              :: !refusals
          else
            match
              Cert.discharge cfg { Cert.pass = pass.name; before; after = proposal }
            with
            | Ok () ->
                current := proposal;
                changed := true;
                deltas :=
                  {
                    pass = pass.name;
                    round = !round;
                    instructions_before = ib;
                    instructions_after = ia;
                    cycles_before = cb;
                    cycles_after = ca;
                    critical_before =
                      (Perf.Cost.analyze cfg before).Perf.Cost.critical_path;
                    critical_after =
                      (Perf.Cost.analyze cfg proposal).Perf.Cost.critical_path;
                  }
                  :: !deltas
            | Error reason ->
                refusals := { pass = pass.name; round = !round; reason } :: !refusals
        end)
      passes
  done;
  {
    optimized = !current;
    deltas = List.rev !deltas;
    refusals = List.rev !refusals;
    rounds = !round;
    certified =
      Result.is_ok (Analysis.Certify.sorts cfg !current);
  }
