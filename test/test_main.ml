(* Test entry point: one alcotest section per library. *)

let () =
  Alcotest.run "multics_sk"
    [
      ("util", Util_test.suite);
      ("machine", Machine_test.suite);
      ("access", Access_test.suite);
      ("mm", Mm_test.suite);
      ("proc", Proc_test.suite);
      ("vm", Vm_test.suite @ Vm_test.backup_suite @ Vm_test.plant_suite);
      ("fs", Fs_test.suite @ Fs_test.minting_suite);
      ("link", Link_test.suite);
      ("io", Io_test.suite);
      ("kernel",
        Kernel_test.suite @ Kernel_test.extra_suite @ Kernel_test.session_suite
        @ Kernel_test.revocation_suite @ Kernel_test.session_interrupt_suite
        @ Kernel_test.copy_suite);
      ("dispatch", Dispatch_test.suite @ Dispatch_test.audit_suite @ Dispatch_test.meter_suite);
      ("obs", Obs_test.suite);
      ("audit", Audit_test.suite @ Audit_test.extra_suite @ Audit_test.stage_suite);
      ("integration", Integration_test.suite);
      ("experiments", Experiments_test.suite);
      ("properties", Property_test.suite);
      ("fault", Fault_test.suite);
      ("misc", Misc_test.suite);
      ("cache", Cache_test.suite);
      ("sched", Sched_test.suite);
      ("smp", Smp_test.suite);
      ("site", Site_test.suite);
      ("shellcmd", Shellcmd_test.suite);
      ("mc", Mc_test.suite);
      ("sid", Sid_test.suite);
      ("registry", Registry_test.suite);
      ("par", Par_test.suite);
      ("spec", Spec_test.suite);
    ]
