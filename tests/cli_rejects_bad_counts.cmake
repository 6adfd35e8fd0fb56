# A bench or example must refuse a malformed count with its usage line
# and exit 2, before running anything: trailing junk ("8x", "1x",
# "0x"), a negative count ("-1") and a non-number ("abc") are the
# inputs a bare strtoull, atoi or stoull let through (or aborted on).
# Each case lists its whole command line. Run by CTest with
#   -DFAULT=<fault_campaign_main> -DCOMPOUND=<bench_compound_fault>
#   -DSWEEP=<sweep_main> -DCLI=<lightpc_cli>
#   -P cli_rejects_bad_counts.cmake
foreach(case
        "${FAULT};--cuts;8x;--out;bad.json"
        "${COMPOUND};--trials;-1;--out;bad.json"
        "${SWEEP};--events;1000;--campaign-cuts;0;--reps;1x;--out;bad.json"
        "${SWEEP};--reps;-1;--out;bad.json"
        "${CLI};--scale;abc"
        "${CLI};--cores;0x")
    execute_process(
        COMMAND ${case}
        RESULT_VARIABLE code
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT code EQUAL 2)
        message(FATAL_ERROR "${case}: expected exit code 2, got ${code}\n"
                            "${out}\n${err}")
    endif()
    if(NOT err MATCHES "usage: ")
        message(FATAL_ERROR "${case}: no usage line on stderr:\n${err}")
    endif()
endforeach()
