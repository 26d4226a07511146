(* Aggregated alcotest entry point for the whole repository.

   With OLAR_QUICK set (the [runtest-quick] alias), the slow suites —
   dataset generation, CLI subprocess round-trips and end-to-end
   integration — are skipped, leaving the fast unit and property
   suites. *)

let quick_only =
  match Sys.getenv_opt "OLAR_QUICK" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

let slow_suites =
  Test_datagen.suites @ Test_cli.suites @ Test_integration.suites

let () =
  Alcotest.run "olar"
    (Test_util.suites @ Test_data.suites @ Test_mining.suites
   @ Test_core.suites @ Test_queries.suites @ Test_lattice_csr.suites
   @ Test_serve.suites @ Test_baseline.suites @ Test_extensions.suites
   @ Test_taxonomy.suites @ Test_quant.suites @ Test_laws.suites
   @ Test_obs.suites @ Test_replay.suites @ Test_net.suites
   @ Test_gate.suites
    @ (if quick_only then [] else slow_suites))
