(* The experiment registry: every table the reproduction regenerates,
   addressable by id.  [bin/experiments.exe] prints these; EXPERIMENTS.md
   records the paper-vs-measured comparison for each. *)

type experiment = {
  id : string;
  title : string;
  paper_claim : string;
  render : unit -> string;
}

let all =
  [
    {
      id = E1_linker_gates.id;
      title = E1_linker_gates.title;
      paper_claim = E1_linker_gates.paper_claim;
      render = E1_linker_gates.render;
    };
    {
      id = E2_naming_removal.id;
      title = E2_naming_removal.title;
      paper_claim = E2_naming_removal.paper_claim;
      render = E2_naming_removal.render;
    };
    {
      id = E3_combined_removal.id;
      title = E3_combined_removal.title;
      paper_claim = E3_combined_removal.paper_claim;
      render = E3_combined_removal.render;
    };
    {
      id = E4_ring_crossing.id;
      title = E4_ring_crossing.title;
      paper_claim = E4_ring_crossing.paper_claim;
      render = E4_ring_crossing.render;
    };
    {
      id = E5_boundary_sweep.id;
      title = E5_boundary_sweep.title;
      paper_claim = E5_boundary_sweep.paper_claim;
      render = E5_boundary_sweep.render;
    };
    {
      id = E6_page_control.id;
      title = E6_page_control.title;
      paper_claim = E6_page_control.paper_claim;
      render = E6_page_control.render;
    };
    {
      id = E7_buffers.id;
      title = E7_buffers.title;
      paper_claim = E7_buffers.paper_claim;
      render = E7_buffers.render;
    };
    {
      id = E8_interrupts.id;
      title = E8_interrupts.title;
      paper_claim = E8_interrupts.paper_claim;
      render = E8_interrupts.render;
    };
    {
      id = E9_policy_partition.id;
      title = E9_policy_partition.title;
      paper_claim = E9_policy_partition.paper_claim;
      render = E9_policy_partition.render;
    };
    {
      id = E10_lattice_flow.id;
      title = E10_lattice_flow.title;
      paper_claim = E10_lattice_flow.paper_claim;
      render = E10_lattice_flow.render;
    };
    {
      id = E11_penetration.id;
      title = E11_penetration.title;
      paper_claim = E11_penetration.paper_claim;
      render = E11_penetration.render;
    };
    {
      id = E12_kernel_inventory.id;
      title = E12_kernel_inventory.title;
      paper_claim = E12_kernel_inventory.paper_claim;
      render = E12_kernel_inventory.render;
    };
    {
      id = E13_cost_of_security.id;
      title = E13_cost_of_security.title;
      paper_claim = E13_cost_of_security.paper_claim;
      render = E13_cost_of_security.render;
    };
    {
      id = E14_certification.id;
      title = E14_certification.title;
      paper_claim = E14_certification.paper_claim;
      render = E14_certification.render;
    };
    {
      id = E15_fail_secure.id;
      title = E15_fail_secure.title;
      paper_claim = E15_fail_secure.paper_claim;
      render = E15_fail_secure.render;
    };
    {
      id = E16_avc.id;
      title = E16_avc.title;
      paper_claim = E16_avc.paper_claim;
      render = E16_avc.render;
    };
    {
      id = E17_timesharing.id;
      title = E17_timesharing.title;
      paper_claim = E17_timesharing.paper_claim;
      render = E17_timesharing.render;
    };
    {
      id = E18_smp.id;
      title = E18_smp.title;
      paper_claim = E18_smp.paper_claim;
      render = E18_smp.render;
    };
    {
      id = E19_sid.id;
      title = E19_sid.title;
      paper_claim = E19_sid.paper_claim;
      render = E19_sid.render;
    };
    {
      id = E20_site.id;
      title = E20_site.title;
      paper_claim = E20_site.paper_claim;
      render = E20_site.render;
    };
    {
      id = E21_mc.id;
      title = E21_mc.title;
      paper_claim = E21_mc.paper_claim;
      render = E21_mc.render;
    };
    {
      id = E22_specialisation.id;
      title = E22_specialisation.title;
      paper_claim = E22_specialisation.paper_claim;
      render = E22_specialisation.render;
    };
    {
      id = Ablations.A1.id;
      title = Ablations.A1.title;
      paper_claim = Ablations.A1.paper_claim;
      render = Ablations.A1.render;
    };
    {
      id = Ablations.A2.id;
      title = Ablations.A2.title;
      paper_claim = Ablations.A2.paper_claim;
      render = Ablations.A2.render;
    };
    {
      id = Ablations.A3.id;
      title = Ablations.A3.title;
      paper_claim = Ablations.A3.paper_claim;
      render = Ablations.A3.render;
    };
  ]

let find id =
  List.find_opt (fun e -> String.lowercase_ascii e.id = String.lowercase_ascii id) all

let ids = List.map (fun e -> e.id) all

let render_one e =
  Printf.sprintf "%s — %s\npaper: %s\n\n%s" e.id e.title e.paper_claim (e.render ())

(* The harness's command line, as data: bin/experiments.exe evaluates
   this term, and the test suite drives [parse] over every registered
   id to prove each runner accepts its flags without rendering
   anything. *)
module Cli = struct
  open Cmdliner

  type selection = { list_only : bool; stats : bool; sel_ids : string list }

  let list_flag =
    Arg.(value & flag & info [ "list"; "l" ] ~doc:"List experiment ids and titles.")

  let stats_flag =
    Arg.(
      value & flag
      & info [ "stats" ] ~doc:"Print the kernel observability snapshot after each experiment.")

  let ids_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids (e.g. e1 e7).")

  let term =
    Term.(
      const (fun list_only stats sel_ids -> { list_only; stats; sel_ids })
      $ list_flag $ stats_flag $ ids_arg)

  let info = Cmd.info "experiments" ~doc:"Regenerate the tables of the reproduction"

  let parse argv =
    match Cmd.eval_value ~argv (Cmd.v info term) with
    | Ok (`Ok sel) -> Ok sel
    | Ok `Version | Ok `Help -> Error "not a selection (help/version)"
    | Error _ -> Error "malformed command line"
end
