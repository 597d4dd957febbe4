(* The symbolic sortedness certifier (Analysis.Symcert) and its order-poset
   domain (Analysis.Order). The contract under test:

   - soundness: Proved implies the exact n! check accepts; Refuted implies
     it rejects, and the carried counterexample replays on the machine;
   - the Machine.Zeroone gap kernel (sorts all 2^n binary inputs, fails a
     permutation) is never Proved — the adversarial regression;
   - the proof module (Analysis.Certify.sorts) routes Proved kernels
     around the n! enumeration, with the counters to show it, and every
     boundary that certifies goes through it: the same verdict and the
     same counterexample line at each one. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let parse cfg s =
  match Isa.Program.of_string cfg s with
  | Ok p -> p
  | Error e -> Alcotest.fail e

let verdict_label v = Analysis.Symcert.verdict_name v

(* The committed example kernels, inlined (tests run in the build sandbox). *)
let sort2 = "cmp r1 r2\nmov s1 r1\ncmovg r1 r2\ncmovg r2 s1\n"

let sort3 =
  "cmp r1 r2\nmov s1 r1\ncmovg r1 r2\ncmovg r2 s1\ncmp r2 r3\nmov s1 r3\n\
   cmovg r3 r2\ncmovg r2 s1\ncmp r1 r2\ncmovg r2 r1\ncmovg r1 s1\n"

let sort4 =
  "cmp r1 r2\nmov s1 r1\ncmovl r1 r3\ncmovl r3 s1\ncmp r1 r2\ncmovl r3 r2\n\
   cmovl r2 s1\ncmp r1 r3\nmov s1 r1\ncmovg r1 r3\ncmovg r3 s1\ncmp r1 r2\n\
   mov s1 r1\ncmovg r1 r2\ncmovg r2 s1\ncmp r3 r4\nmov s1 r4\ncmovg r4 r3\n\
   cmovg r3 s1\ncmp r2 r3\ncmovg r3 r2\ncmovg r2 s1\ncmp r1 r2\ncmovg r2 r1\n\
   cmovg r1 s1\n"

(* ------------------------------------------------------------------ *)
(* Order: the poset domain.                                            *)

let test_order_base_facts () =
  let t = Analysis.Order.create 4 in
  for i = 1 to 3 do
    if not (Analysis.Order.lt t 0 i) then
      Alcotest.failf "base fact 0 < %d missing" i;
    if Analysis.Order.lt t i 0 then Alcotest.failf "bogus %d < 0" i
  done;
  check Alcotest.bool "1 vs 2 undecided" true
    (Analysis.Order.decided t 1 2 = `Unknown)

let test_order_transitivity () =
  let t = Analysis.Order.create 5 in
  assert (Analysis.Order.add_lt t 1 2);
  assert (Analysis.Order.add_lt t 2 3);
  check Alcotest.bool "1 < 3 by transitivity" true (Analysis.Order.lt t 1 3);
  (* Later insertions close over earlier ones in both directions. *)
  assert (Analysis.Order.add_lt t 4 1);
  check Alcotest.bool "4 < 3 through the chain" true (Analysis.Order.lt t 4 3);
  (* Contradictions are refused and leave the poset untouched. *)
  let before = Analysis.Order.key t in
  check Alcotest.bool "3 < 1 refused" false (Analysis.Order.add_lt t 3 1);
  check Alcotest.bool "a = a refused" false (Analysis.Order.add_lt t 2 2);
  check Alcotest.string "refusal left no trace" before (Analysis.Order.key t)

let test_order_extension () =
  let t = Analysis.Order.create 4 in
  assert (Analysis.Order.add_lt t 3 1);
  let respects ext =
    let pos = Array.make 4 0 in
    Array.iteri (fun i id -> pos.(id) <- i) ext;
    pos.(0) = 0 && pos.(3) < pos.(1)
  in
  let asc = Analysis.Order.extension t in
  let desc = Analysis.Order.extension ~desc:true t in
  check Alcotest.bool "asc respects poset" true (respects asc);
  check Alcotest.bool "desc respects poset" true (respects desc);
  (* The two tie-breaks really produce distinct witnesses on a non-total
     poset (2 is incomparable to both 1 and 3). *)
  if asc = desc then Alcotest.fail "asc and desc extensions coincide"

let test_order_rename () =
  let t = Analysis.Order.create 4 in
  assert (Analysis.Order.add_lt t 1 3);
  let r = Analysis.Order.rename t [| 0; 2; 3; 1 |] in
  check Alcotest.bool "renamed fact 2 < 1" true (Analysis.Order.lt r 2 1);
  check Alcotest.bool "original fact gone" false (Analysis.Order.lt r 1 3);
  check Alcotest.bool "base facts survive" true (Analysis.Order.lt r 0 3)

(* ------------------------------------------------------------------ *)
(* Proved: the committed kernels certify symbolically.                 *)

let test_examples_proved () =
  List.iter
    (fun (n, src) ->
      let cfg = Isa.Config.default n in
      let v = Analysis.Symcert.certify cfg (parse cfg src) in
      check Alcotest.string
        (Printf.sprintf "sort%d proved" n)
        "proved" (verdict_label v))
    [ (2, sort2); (3, sort3); (4, sort4) ]

(* ------------------------------------------------------------------ *)
(* Refuted: confirmed counterexamples, including the Zeroone gap.      *)

let assert_refutation_confirmed cfg p = function
  | Analysis.Symcert.Refuted { input; output } ->
      let real = Machine.Exec.run cfg p input in
      if real <> output then
        Alcotest.failf "counterexample does not replay: claimed [%s] got [%s]"
          (String.concat " " (Array.to_list (Array.map string_of_int output)))
          (String.concat " " (Array.to_list (Array.map string_of_int real)));
      if Perms.is_identity output then
        Alcotest.fail "counterexample output is sorted"
  | v -> Alcotest.failf "expected refuted, got %s" (verdict_label v)

let test_broken_kernels_refuted () =
  List.iter
    (fun (n, src) ->
      let cfg = Isa.Config.default n in
      let p = parse cfg src in
      assert_refutation_confirmed cfg p (Analysis.Symcert.certify cfg p))
    [
      (2, "");  (* the empty program leaves r1 r2 unordered *)
      (2, "cmp r1 r2\ncmovg r1 r2\n");  (* duplicates the larger value *)
      (2, "mov r1 s1\n");  (* overwrites an input with the constant 0 *)
      (3, sort2);  (* sorts the first two of three *)
    ]

let test_zeroone_gap_kernel_not_proved () =
  let cfg = Isa.Config.default 2 in
  match Machine.Zeroone.find_counterexample_kernel cfg with
  | None -> Alcotest.fail "Zeroone found no gap kernel at n=2"
  | Some (p, perm) ->
      (* The witness: correct on all 2^n binary inputs, wrong on [perm]. *)
      assert (Machine.Zeroone.sorts_all_binary cfg p);
      assert (not (Perms.is_identity (Machine.Exec.run cfg p perm)));
      let v = Analysis.Symcert.certify cfg p in
      (match v with
      | Analysis.Symcert.Proved ->
          Alcotest.fail "symcert PROVED the Zeroone gap kernel (unsound!)"
      | Analysis.Symcert.Unknown _ -> ()
      | Analysis.Symcert.Refuted _ -> assert_refutation_confirmed cfg p v);
      (* And the proof module rejects it without running the fallback. *)
      let fb0 = Analysis.Certify.exact_fallbacks () in
      (match Analysis.Certify.sorts cfg p with
      | Ok () -> Alcotest.fail "Certify.sorts accepted the gap kernel"
      | Error msg ->
          if not (String.length msg > 0) then Alcotest.fail "empty error");
      check Alcotest.int "no fallback needed to refute" fb0
        (Analysis.Certify.exact_fallbacks ())

(* ------------------------------------------------------------------ *)
(* Soundness gate: randomized programs, n = 2..5.                      *)

let random_program rand cfg len =
  let all = Isa.Instr.all cfg in
  Array.init len (fun _ -> all.(Random.State.int rand (Array.length all)))

let exact_sorts cfg p = Machine.Exec.counterexample cfg p = None

let soundness_gate ~n ~m ~runs ~max_len () =
  let rand = Random.State.make [| 0x5eed + n; m; runs |] in
  let cfg = Isa.Config.make ~n ~m in
  let unknowns = ref 0 in
  for _ = 1 to runs do
    let p = random_program rand cfg (Random.State.int rand (max_len + 1)) in
    match Analysis.Symcert.certify cfg p with
    | Analysis.Symcert.Proved ->
        if not (exact_sorts cfg p) then
          Alcotest.failf "UNSOUND Proved at n=%d: %s" n
            (Isa.Program.to_string cfg p)
    | Analysis.Symcert.Refuted _ as v ->
        if exact_sorts cfg p then
          Alcotest.failf "UNSOUND Refuted at n=%d: %s" n
            (Isa.Program.to_string cfg p)
        else assert_refutation_confirmed cfg p v
    | Analysis.Symcert.Unknown _ -> incr unknowns
  done;
  (* The certifier is a decision procedure up to the world budget: at
     these sizes the budget never trips, so Unknown would be a bug. *)
  if n <= 4 && !unknowns > 0 then
    Alcotest.failf "%d Unknown verdicts at n=%d" !unknowns n

let test_soundness_n2 = soundness_gate ~n:2 ~m:2 ~runs:400 ~max_len:8
let test_soundness_n3 = soundness_gate ~n:3 ~m:1 ~runs:200 ~max_len:12
let test_soundness_n4 = soundness_gate ~n:4 ~m:1 ~runs:80 ~max_len:12
let test_soundness_n5 = soundness_gate ~n:5 ~m:1 ~runs:30 ~max_len:10

(* QCheck property: the symcert verdict agrees with the permutation-set
   abstract interpreter (Absint: every reachable final assignment sorted)
   and the exact check on random programs. *)
let qcheck_agrees_with_absint =
  let gen =
    QCheck.Gen.(
      let* n = int_range 2 4 in
      let* m = int_range 1 2 in
      let cfg = Isa.Config.make ~n ~m in
      let all = Isa.Instr.all cfg in
      let* len = int_range 0 10 in
      let* idx = list_repeat len (int_bound (Array.length all - 1)) in
      return (cfg, Array.of_list (List.map (Array.get all) idx)))
  in
  let print (cfg, p) =
    Printf.sprintf "n=%d m=%d:\n%s" cfg.Isa.Config.n cfg.Isa.Config.m
      (Isa.Program.to_string cfg p)
  in
  QCheck.Test.make ~count:150 ~name:"symcert agrees with absint and exact"
    (QCheck.make ~print gen) (fun (cfg, p) ->
      let absint_ok =
        Array.for_all (Machine.Assign.is_sorted cfg)
          (Analysis.Absint.reachable cfg p).(Array.length p)
      in
      let exact_ok = exact_sorts cfg p in
      if absint_ok <> exact_ok then
        QCheck.Test.fail_reportf "absint and exact disagree";
      match Analysis.Symcert.certify cfg p with
      | Analysis.Symcert.Proved -> absint_ok && exact_ok
      | Analysis.Symcert.Refuted _ -> (not absint_ok) && not exact_ok
      | Analysis.Symcert.Unknown _ -> true)

(* ------------------------------------------------------------------ *)
(* The proof module's counters.                                        *)

let counters () =
  Analysis.Certify.
    (symbolic_proofs (), exact_fallbacks (), certifications ())

let test_counters_and_fast_path () =
  let cfg = Isa.Config.default 3 in
  let p = parse cfg sort3 in
  let sorts ?max_worlds p = Analysis.Certify.sorts ?max_worlds cfg p in
  let sp0, fb0, ex0 = counters () in
  (* Proved: Ok, symbolic_proofs ticks, no fallback. *)
  (match sorts p with
  | Ok () -> ()
  | Error e -> Alcotest.failf "sort3 rejected: %s" e);
  let sp, fb, ex = counters () in
  check Alcotest.int "symbolic_proofs +1" (sp0 + 1) sp;
  check Alcotest.int "exact_fallbacks unchanged" fb0 fb;
  check Alcotest.int "certifications unchanged" ex0 ex;
  (* Refuted: Error in the exact check's message format, no counter. *)
  (match sorts (parse cfg sort2) with
  | Ok () -> Alcotest.fail "accepted a non-sorting kernel"
  | Error msg ->
      if not (String.length msg >= 16 && String.sub msg 0 16 = "kernel of length")
      then Alcotest.failf "unexpected error format: %s" msg);
  check Alcotest.bool "refuted bumps nothing" true
    (counters () = (sp0 + 1, fb0, ex0));
  (* Unknown (starved world budget): the exact fallback runs and decides,
     and the fallback and exact counters move together. *)
  (match sorts ~max_worlds:1 p with
  | Ok () -> ()
  | Error e -> Alcotest.failf "fallback rejected sort3: %s" e);
  (match sorts ~max_worlds:1 (parse cfg sort2) with
  | Ok () -> Alcotest.fail "fallback accepted a non-sorting kernel"
  | Error _ -> ());
  let sp, fb, ex = counters () in
  check Alcotest.int "no symbolic proof under a starved budget" (sp0 + 1) sp;
  check Alcotest.int "exact_fallbacks +2" (fb0 + 2) fb;
  check Alcotest.int "certifications moved with the fallbacks" (fb - fb0)
    (ex - ex0)

let test_verify_certify_fast_skips_enumeration () =
  let cfg = Isa.Config.default 3 in
  let p = parse cfg sort3 in
  let sp0, _, exact0 = counters () in
  (match Registry.Verify.certify_fast cfg p with
  | Ok () -> ()
  | Error e -> Alcotest.failf "certify_fast rejected sort3: %s" e);
  check Alcotest.int "no exact certification ran" exact0
    (Analysis.Certify.certifications ());
  check Alcotest.int "proved symbolically" (sp0 + 1)
    (Analysis.Certify.symbolic_proofs ())

(* Linting, DCE and the optimizer all certify through the proof module,
   so each one is visible in its counters. *)
let test_every_caller_counts () =
  let cfg = Isa.Config.default 3 in
  let p = parse cfg sort3 in
  let moves what f =
    let sp0 = Analysis.Certify.symbolic_proofs () in
    f ();
    if Analysis.Certify.symbolic_proofs () <= sp0 then
      Alcotest.failf "%s did not move symbolic_proofs" what
  in
  moves "lint" (fun () -> ignore (Analysis.Lint.check_all cfg p));
  moves "dce" (fun () ->
      check Alcotest.bool "dce certified" true
        (Analysis.Dce.run cfg p).Analysis.Dce.certified);
  moves "optimize" (fun () ->
      check Alcotest.bool "optimizer certified" true
        (Opt.Pipeline.run cfg p).Opt.Pipeline.certified)

(* ------------------------------------------------------------------ *)
(* One verdict, one message at every boundary: the zero-one gap kernel
   (examples/gap/zeroone_gap.txt) is rejected everywhere with the same
   confirmed counterexample line. The CLI boundary, [synth certify
   --json], is checked for the same line by the certify smoke section
   (scripts/smoke.sh).                                                 *)

let gap_src = "cmp r1 r2\ncmovg r2 r1\ncmovg r1 s1\n"
let gap_line = "kernel of length 3 fails on input [2 1]: produced [0 2]"

let ends_with ~suffix s =
  let n = String.length s and k = String.length suffix in
  n >= k && String.sub s (n - k) k = suffix

let test_gap_rejected_at_every_boundary () =
  let cfg = Isa.Config.default 2 in
  let gap = parse cfg gap_src in
  check
    (Alcotest.result Alcotest.unit Alcotest.string)
    "Certify.sorts" (Error gap_line)
    (Analysis.Certify.sorts cfg gap);
  (* Store.insert: the registry's admission check. *)
  let key = Registry.Key.make 2 in
  let r = { (Search.run cfg) with Search.programs = [ gap ] } in
  let root = Filename.temp_dir "sortsynth-gap" "" in
  check
    (Alcotest.result Alcotest.unit Alcotest.string)
    "Store.insert" (Error gap_line)
    (Result.map ignore (Registry.Store.insert ~root key r));
  (* Opt.Cert.discharge: a "rewrite" of sort2 into the gap kernel. *)
  (match
     Opt.Cert.discharge cfg
       { Opt.Cert.pass = "gap"; before = parse cfg sort2; after = gap }
   with
  | Ok () -> Alcotest.fail "discharge accepted the gap rewrite"
  | Error e ->
      if not (ends_with ~suffix:(": " ^ gap_line) e) then
        Alcotest.failf "discharge: unexpected message %s" e);
  (* Lint's not-sorting rule. *)
  let not_sorting =
    List.filter_map
      (fun (f : Analysis.Lint.finding) ->
        if f.rule = Analysis.Lint.Not_sorting then Some f.message else None)
      (Analysis.Lint.check_all cfg gap)
  in
  check (Alcotest.list Alcotest.string) "Lint not-sorting" [ gap_line ]
    not_sorting;
  (* DCE: the kernel does not sort before or after. *)
  let d = Analysis.Dce.run cfg gap in
  check Alcotest.bool "Dce certified" false d.Analysis.Dce.certified;
  check Alcotest.bool "Dce refused" false d.Analysis.Dce.refused

(* ------------------------------------------------------------------ *)
(* The search-facing final check.                                      *)

let test_search_final_check () =
  let cfg = Isa.Config.default 3 in
  let calls = ref 0 in
  let accept_all p =
    incr calls;
    match Analysis.Symcert.certify cfg p with
    | Analysis.Symcert.Refuted _ -> false
    | Analysis.Symcert.Proved | Analysis.Symcert.Unknown _ -> true
  in
  let opts = { Search.best with Search.final_check = Some accept_all } in
  let r = Search.run ~opts cfg in
  check (Alcotest.option Alcotest.int) "optimum unchanged" (Some 11)
    r.Search.optimal_length;
  if !calls = 0 then Alcotest.fail "final check never consulted";
  (* A veto-everything check finds nothing instead of mis-reporting. *)
  let never = { Search.best with Search.final_check = Some (fun _ -> false) } in
  let r =
    Search.run_mode ~opts:{ never with Search.max_len = Some 11 }
      ~mode:Search.Find_first cfg
  in
  check (Alcotest.option Alcotest.int) "vetoed search finds nothing" None
    r.Search.optimal_length;
  (* Level-sync and parallel honor the same predicate. *)
  let seq =
    Search.run_mode
      ~opts:{ opts with Search.engine = Search.Level_sync }
      ~mode:Search.Find_first cfg
  in
  check (Alcotest.option Alcotest.int) "level-sync agrees" (Some 11)
    seq.Search.optimal_length

(* ------------------------------------------------------------------ *)
(* lint --rules stays in sync with the README rule table.              *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let split_on_string sep s =
  let seplen = String.length sep and n = String.length s in
  let rec go start acc i =
    if i + seplen > n then List.rev (String.sub s start (n - start) :: acc)
    else if String.sub s i seplen = sep then
      go (i + seplen) (String.sub s start (i - start) :: acc) (i + seplen)
    else go start acc (i + 1)
  in
  go 0 [] 0

let contains_sub s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

let readme_rule_rows readme =
  (* Rows of the table headed `| rule id | severity | fires on |`. *)
  let lines = String.split_on_char '\n' readme in
  let rec skip_to_header = function
    | [] -> Alcotest.fail "README rule table header not found"
    | l :: rest ->
        if String.length l > 0 && l.[0] = '|' && contains_sub l "rule id" then
          rest
        else skip_to_header rest
  in
  let rows = skip_to_header lines in
  let rows = match rows with _sep :: rest -> rest | [] -> [] in
  let parse_row l =
    match List.map String.trim (split_on_string "|" l) with
    | [ ""; id; severity; description; "" ] ->
        let strip_ticks s =
          if String.length s >= 2 && s.[0] = '`' && s.[String.length s - 1] = '`'
          then String.sub s 1 (String.length s - 2)
          else s
        in
        Some (strip_ticks id, severity, description)
    | _ -> None
  in
  let rec take acc = function
    | l :: rest when String.length l > 0 && l.[0] = '|' -> (
        match parse_row l with
        | Some row -> take (row :: acc) rest
        | None -> take acc rest)
    | _ -> List.rev acc
  in
  take [] rows

let find_readme () =
  (* dune runtest runs in _build/default/test, dune exec wherever the user
     stands — walk upward until the README shows up. *)
  let rec go prefix depth =
    let candidate = Filename.concat prefix "README.md" in
    if Sys.file_exists candidate then candidate
    else if depth = 0 then Alcotest.fail "README.md not found"
    else go (Filename.concat prefix Filename.parent_dir_name) (depth - 1)
  in
  go Filename.current_dir_name 4

let test_lint_rules_sync_with_readme () =
  let readme = read_file (find_readme ()) in
  let rows = readme_rule_rows readme in
  let rules = Analysis.Lint.rules in
  check Alcotest.int "row count" (List.length rules) (List.length rows);
  List.iter2
    (fun rule (id, severity, description) ->
      check Alcotest.string "rule id" (Analysis.Lint.rule_id rule) id;
      check Alcotest.string
        (Printf.sprintf "%s severity" id)
        (Analysis.Lint.severity_to_string (Analysis.Lint.severity_of_rule rule))
        severity;
      check Alcotest.string
        (Printf.sprintf "%s description" id)
        (Analysis.Lint.describe rule) description)
    rules rows

let () =
  Alcotest.run "symcert"
    [
      ( "order",
        [
          Alcotest.test_case "base facts" `Quick test_order_base_facts;
          Alcotest.test_case "transitive closure" `Quick
            test_order_transitivity;
          Alcotest.test_case "linear extensions" `Quick test_order_extension;
          Alcotest.test_case "rename" `Quick test_order_rename;
        ] );
      ( "verdicts",
        [
          Alcotest.test_case "examples proved" `Quick test_examples_proved;
          Alcotest.test_case "broken kernels refuted" `Quick
            test_broken_kernels_refuted;
          Alcotest.test_case "zeroone gap kernel never proved" `Quick
            test_zeroone_gap_kernel_not_proved;
        ] );
      ( "soundness",
        [
          Alcotest.test_case "randomized n=2" `Quick test_soundness_n2;
          Alcotest.test_case "randomized n=3" `Quick test_soundness_n3;
          Alcotest.test_case "randomized n=4" `Slow test_soundness_n4;
          Alcotest.test_case "randomized n=5" `Slow test_soundness_n5;
          qtest qcheck_agrees_with_absint;
        ] );
      ( "fast-path",
        [
          Alcotest.test_case "counters" `Quick test_counters_and_fast_path;
          Alcotest.test_case "verify.certify_fast skips n!" `Quick
            test_verify_certify_fast_skips_enumeration;
          Alcotest.test_case "every caller counts" `Quick
            test_every_caller_counts;
          Alcotest.test_case "search final check" `Slow
            test_search_final_check;
        ] );
      ( "boundaries",
        [
          Alcotest.test_case "gap kernel rejected everywhere alike" `Quick
            test_gap_rejected_at_every_boundary;
        ] );
      ( "lint-rules",
        [
          Alcotest.test_case "synced with README" `Quick
            test_lint_rules_sync_with_readme;
        ] );
    ]
