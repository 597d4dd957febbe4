let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let parse cfg s =
  match Isa.Program.of_string cfg s with
  | Ok p -> p
  | Error e -> Alcotest.fail e

let equivalent = Analysis.Certify.equivalent

(* The optimal n=2 kernel and the naive n=3 compilation shipped as
   examples/kernels/sort3_unopt.txt (insertion network with a duplicated
   cmp in the middle comparator). *)
let sort2 = "mov s1 r1\ncmp r1 r2\ncmovg r1 r2\ncmovg r2 s1\n"

let sort3_unopt =
  "mov s1 r1\ncmp r1 r2\ncmovg r1 r2\ncmovg r2 s1\n"
  ^ "mov s1 r2\ncmp r2 r3\ncmp r2 r3\ncmovg r2 r3\ncmovg r3 s1\n"
  ^ "mov s1 r1\ncmp r1 r2\ncmovg r1 r2\ncmovg r2 s1\n"

(* ------------------------------------------------------------------ *)
(* Random valid programs. Decoded deterministically from a list of
   ints so QCheck shrinking stays meaningful: each int picks an opcode
   and an ordered register pair, fixed up to satisfy Isa.Instr.valid. *)

let decode_instr cfg k =
  let k = abs k in
  let nregs = Isa.Config.nregs cfg in
  let a = k / 4 mod nregs in
  let b = k / (4 * nregs) mod nregs in
  let b = if a = b then (a + 1) mod nregs else b in
  let lo = min a b and hi = max a b in
  match k mod 4 with
  | 0 -> Isa.Instr.mov a b
  | 1 -> Isa.Instr.cmp lo hi
  | 2 -> Isa.Instr.cmovl a b
  | _ -> Isa.Instr.cmovg a b

let decode_program (n, ks) =
  let cfg = Isa.Config.make ~n ~m:2 in
  let p = Array.of_list (List.map (decode_instr cfg) ks) in
  assert (Array.for_all (Isa.Instr.valid cfg) p);
  (cfg, p)

let random_program =
  QCheck.(
    pair (int_range 2 4) (list_of_size (QCheck.Gen.int_range 0 24) small_nat))

(* Property 1 (the pipeline's whole contract): the optimized program is
   bit-identical to the input on the value registers for every one of the
   n! input permutations — checked by the independent equivalence engine,
   not by the certifier that gated the rewrites. *)
let prop_pipeline_preserves_behavior =
  QCheck.Test.make ~name:"pipeline output equivalent on all n! inputs"
    ~count:150 random_program (fun spec ->
      let cfg, p = decode_program spec in
      let rep = Opt.Pipeline.run cfg p in
      Result.is_ok (equivalent cfg p rep.Opt.Pipeline.optimized))

(* Property 2: the cost gate. Optimization never increases the
   instruction count nor the simulated cycle count. *)
let prop_pipeline_never_worse =
  QCheck.Test.make ~name:"pipeline never increases length or cycles"
    ~count:150 random_program (fun spec ->
      let cfg, p = decode_program spec in
      let q = (Opt.Pipeline.run cfg p).Opt.Pipeline.optimized in
      Array.length q <= Array.length p
      && Perf.Cost.simulated_cycles cfg q <= Perf.Cost.simulated_cycles cfg p)

(* Property 3: comparator extraction round-trips on the lib/sortnet
   baselines — extract (to_kernel net) recovers net's comparators exactly,
   and recompiling the extracted network is equivalent to the original. *)
let extraction_roundtrip_on name net =
  let cfg = Isa.Config.make ~n:net.Sortnet.n ~m:1 in
  let k = Sortnet.to_kernel cfg net in
  match Opt.Extract.run cfg k with
  | Opt.Extract.Rejected { index; reason } ->
      Alcotest.failf "%s: not extractable at %d: %s" name index reason
  | Opt.Extract.Network net' ->
      check
        (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
        (name ^ " comparators round-trip") net.Sortnet.comparators
        net'.Sortnet.comparators;
      check Alcotest.bool (name ^ " 0-1 certified") true
        (Sortnet.sorts_all_binary net');
      let recompiled = Sortnet.to_kernel cfg net' in
      check Alcotest.bool (name ^ " recompiled equivalent") true
        (Result.is_ok (equivalent cfg k recompiled))

let test_extraction_roundtrip () =
  for n = 2 to 5 do
    extraction_roundtrip_on (Printf.sprintf "optimal %d" n) (Sortnet.optimal n);
    extraction_roundtrip_on
      (Printf.sprintf "bose_nelson %d" n)
      (Sortnet.bose_nelson n);
    extraction_roundtrip_on
      (Printf.sprintf "insertion %d" n)
      (Sortnet.insertion n)
  done

let test_extraction_rejects_non_network () =
  (* The paper's clever 11-instruction sort3 reuses the saved scratch
     across comparators: syntactically not a network, and extraction must
     say so rather than unsoundly applying the 0-1 shortcut. *)
  let cfg = Isa.Config.make ~n:2 ~m:1 in
  let p = parse cfg "cmp r1 r2\nmov s1 r1\ncmovl r1 r2\ncmovg r2 s1\n" in
  match Opt.Extract.run cfg p with
  | Opt.Extract.Network _ ->
      Alcotest.fail "descending comparator extracted as a network"
  | Opt.Extract.Rejected { index; _ } -> check Alcotest.int "index" 2 index

(* ------------------------------------------------------------------ *)
(* The certificate. *)

let test_cert_accepts_identity () =
  let cfg = Isa.Config.default 2 in
  let p = parse cfg sort2 in
  match Opt.Cert.discharge cfg { Opt.Cert.pass = "id"; before = p; after = p } with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_cert_refuses_broken_rewrite () =
  let cfg = Isa.Config.default 2 in
  let p = parse cfg sort2 in
  (* "Optimizing" the kernel to nothing changes behavior on any unsorted
     input; the certificate must name a concrete counterexample. *)
  match
    Opt.Cert.discharge cfg { Opt.Cert.pass = "empty"; before = p; after = [||] }
  with
  | Ok () -> Alcotest.fail "empty rewrite certified"
  | Error e ->
      let contains sub =
        let n = String.length e and k = String.length sub in
        let rec go i = i + k <= n && (String.sub e i k = sub || go (i + 1)) in
        go 0
      in
      check Alcotest.bool "carries a concrete counterexample" true
        (contains "input")

(* ------------------------------------------------------------------ *)
(* The pipeline on the shipped naive kernel. *)

let test_pipeline_improves_naive_sort3 () =
  let cfg = Isa.Config.default 3 in
  let p = parse cfg sort3_unopt in
  let rep = Opt.Pipeline.run cfg p in
  let q = rep.Opt.Pipeline.optimized in
  check Alcotest.bool "strictly shorter" true
    (Array.length q < Array.length p);
  check Alcotest.bool "a delta was recorded" true
    (rep.Opt.Pipeline.deltas <> []);
  check Alcotest.bool "still certified" true rep.Opt.Pipeline.certified;
  check Alcotest.bool "equivalent" true
    (Result.is_ok (equivalent cfg p q))

let test_pipeline_refuses_sabotage () =
  (* Arm the opt.break_pass fault site: every proposal is mutated into a
     semantics-changing program before certification. The certifier must
     refuse every one; the kernel must come out untouched. *)
  Fault.install
    { Fault.seed = 1; warp = 0.; rules = [ (Fault.Opt_break_pass, Fault.Always) ] };
  Fun.protect ~finally:Fault.disarm (fun () ->
      let cfg = Isa.Config.default 3 in
      let p = parse cfg sort3_unopt in
      let rep = Opt.Pipeline.run cfg p in
      check Alcotest.bool "program untouched" true
        (Isa.Program.equal p rep.Opt.Pipeline.optimized);
      check
        (Alcotest.list Alcotest.string)
        "no rewrite applied" []
        (List.map (fun (d : Opt.Pipeline.delta) -> d.Opt.Pipeline.pass)
           rep.Opt.Pipeline.deltas);
      check Alcotest.bool "refusals recorded" true
        (rep.Opt.Pipeline.refusals <> []))

(* ------------------------------------------------------------------ *)
(* Individual passes. *)

let find_pass name =
  match Opt.Passes.find name with
  | Some p -> p
  | None -> Alcotest.failf "pass %s not registered" name

let test_schedule_fills_stall_slots () =
  (* Four independent saves ahead of a comparator: issued in program
     order they fill cycle 1 entirely (4-wide), pushing the cmp to cycle
     2 and its cmovs to cycle 3. Hoisting the cmp into cycle 1 lets the
     cmovs issue a cycle earlier. *)
  let cfg = Isa.Config.make ~n:4 ~m:3 in
  let p =
    parse cfg
      "mov s1 r3\nmov s2 r4\nmov s3 r3\nmov s1 r4\ncmp r1 r2\ncmovg r1 \
       r2\ncmovl r2 s3\n"
  in
  let q = (find_pass "schedule").Opt.Passes.apply cfg p in
  check Alcotest.bool "strictly fewer simulated cycles" true
    (Perf.Cost.simulated_cycles cfg q < Perf.Cost.simulated_cycles cfg p);
  check Alcotest.bool "still equivalent" true
    (Result.is_ok (equivalent cfg p q))

let test_redundant_cmp_pass () =
  let cfg = Isa.Config.default 2 in
  let p = parse cfg "cmp r1 r2\ncmp r1 r2\nmov s1 r1\ncmovg r1 r2\ncmovg r2 s1\n" in
  let q = (find_pass "redundant-cmp").Opt.Passes.apply cfg p in
  check Alcotest.int "one cmp dropped" 4 (Array.length q)

let test_coalesce_cmov_pass () =
  (* cmovl + cmovg on the same (dst, src) under flags from cmp dst src is
     an unconditional move (on equality the copy is the identity). *)
  let cfg = Isa.Config.default 2 in
  let p = parse cfg "cmp r1 r2\ncmovl r1 r2\ncmovg r1 r2\nmov s1 r2\n" in
  let q = (find_pass "coalesce-cmov").Opt.Passes.apply cfg p in
  check Alcotest.int "pair collapsed" 3 (Array.length q);
  check Alcotest.bool "collapsed to a mov" true
    (Array.exists (fun i -> i.Isa.Instr.op = Isa.Instr.Mov && i.Isa.Instr.dst = 0) q);
  check Alcotest.bool "equivalent" true
    (Result.is_ok (equivalent cfg p q))

let test_canonicalize_pass () =
  (* Scratch registers renumber in first-write order: a kernel using s2
     before s1 canonicalizes to the same bytes as its s1-first twin. *)
  let cfg = Isa.Config.make ~n:2 ~m:2 in
  let twisted = parse cfg "mov s2 r1\ncmp r1 r2\ncmovg r1 r2\ncmovg r2 s2\n" in
  let straight = parse cfg "mov s1 r1\ncmp r1 r2\ncmovg r1 r2\ncmovg r2 s1\n" in
  let c = (find_pass "canonicalize").Opt.Passes.apply cfg twisted in
  check Alcotest.bool "canonical form" true (Isa.Program.equal c straight)

(* ------------------------------------------------------------------ *)
(* The equivalence engine itself. *)

let test_equiv_counterexample () =
  let cfg = Isa.Config.default 2 in
  let sorts = parse cfg sort2 in
  let id = [||] in
  (match equivalent cfg sorts sorts with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "kernel differs from itself");
  (match equivalent cfg sorts id with
  | Ok () -> Alcotest.fail "sort2 equivalent to the identity"
  | Error { Analysis.Certify.input; out_a; out_b } ->
      (* The counterexample must be a genuine witness. *)
      check
        (Alcotest.array Alcotest.int)
        "identity echoes the input" input out_b;
      check Alcotest.bool "outputs differ" true (out_a <> out_b));
  (* The zero-one gap kernel (examples/gap/zeroone_gap.txt) agrees with
     sort2 on every binary input but not on the permutation [2 1]. *)
  let gap = parse cfg "cmp r1 r2\ncmovg r2 r1\ncmovg r1 s1\n" in
  match equivalent cfg sorts gap with
  | Ok () -> Alcotest.fail "sort2 equivalent to the gap kernel"
  | Error { Analysis.Certify.input; out_a; out_b } ->
      let ints = Alcotest.array Alcotest.int in
      check ints "first differing permutation" [| 2; 1 |] input;
      check ints "sort2 output" [| 1; 2 |] out_a;
      check ints "gap kernel output" [| 0; 2 |] out_b

let () =
  Alcotest.run "opt"
    [
      ( "properties",
        [
          qtest prop_pipeline_preserves_behavior;
          qtest prop_pipeline_never_worse;
        ] );
      ( "extraction",
        [
          Alcotest.test_case "round-trips sortnet baselines" `Quick
            test_extraction_roundtrip;
          Alcotest.test_case "rejects non-networks" `Quick
            test_extraction_rejects_non_network;
        ] );
      ( "certificate",
        [
          Alcotest.test_case "accepts identity" `Quick test_cert_accepts_identity;
          Alcotest.test_case "refuses broken rewrite" `Quick
            test_cert_refuses_broken_rewrite;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "improves naive sort3" `Quick
            test_pipeline_improves_naive_sort3;
          Alcotest.test_case "refuses sabotaged passes" `Quick
            test_pipeline_refuses_sabotage;
        ] );
      ( "passes",
        [
          Alcotest.test_case "schedule fills stalls" `Quick
            test_schedule_fills_stall_slots;
          Alcotest.test_case "redundant-cmp" `Quick test_redundant_cmp_pass;
          Alcotest.test_case "coalesce-cmov" `Quick test_coalesce_cmov_pass;
          Alcotest.test_case "canonicalize" `Quick test_canonicalize_pass;
        ] );
      ( "equiv",
        [
          Alcotest.test_case "self + counterexample" `Quick
            test_equiv_counterexample;
        ] );
    ]
