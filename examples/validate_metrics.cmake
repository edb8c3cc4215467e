# Runs metrics_dashboard and validates every export format:
#   * metrics.json, trace.json, congestion.json, and postmortem.json parse
#     with `python3 -m json.tool`
#   * metrics.csv starts with a "time_us,..." header and has data rows, and
#     its gauge columns carry values: node0.nic.sram_free_bytes (2 MiB of
#     NIC SRAM, never exhausted by this run) reads nonzero on every row
#   * no fabric.link.*.util reading in metrics.csv exceeds 1
#   * metrics.prom carries "# TYPE bcl_..." exposition lines
#   * every fabric.link.*.util gauge reads the same in metrics.json and
#     metrics.prom, which the dashboard writes at one instant
#   * congestion.json names links with utilization; postmortem.json carries
#     the flight-recorder timeline and congestion-ranked links
#   * the node0.* series in metrics.json, each with its section, are exactly
#     the ones listed in metrics_node0_series.txt
# Invoked as a ctest case:
#   cmake -DDASHBOARD=<exe> -DOUT_DIR=<dir> -P validate_metrics.cmake

file(MAKE_DIRECTORY "${OUT_DIR}")
execute_process(COMMAND "${DASHBOARD}" "${OUT_DIR}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "metrics_dashboard failed with exit code ${rc}")
endif()

foreach(f metrics.json metrics.prom metrics.csv trace.json
        congestion.json postmortem.json)
  if(NOT EXISTS "${OUT_DIR}/${f}")
    message(FATAL_ERROR "missing export: ${OUT_DIR}/${f}")
  endif()
endforeach()

find_program(PYTHON3 python3)
if(PYTHON3)
  foreach(f metrics.json trace.json congestion.json postmortem.json)
    execute_process(COMMAND "${PYTHON3}" -m json.tool "${OUT_DIR}/${f}"
                    OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE jrc)
    if(NOT jrc EQUAL 0)
      message(FATAL_ERROR "${f} is not valid JSON: ${err}")
    endif()
  endforeach()
else()
  message(WARNING "python3 not found; skipping JSON validation")
endif()

file(STRINGS "${OUT_DIR}/metrics.csv" csv_lines)
list(LENGTH csv_lines csv_count)
if(csv_count LESS 2)
  message(FATAL_ERROR "metrics.csv has no data rows (${csv_count} lines)")
endif()
list(GET csv_lines 0 csv_header)
if(NOT csv_header MATCHES "^time_us,")
  message(FATAL_ERROR "metrics.csv header is '${csv_header}', expected time_us,...")
endif()

# A gauge that cannot read 0 in this run, so a CSV export that loses
# gauge values (writing 0 in their columns) fails here.
string(REPLACE "," ";" csv_columns "${csv_header}")
list(FIND csv_columns "node0.nic.sram_free_bytes" sram_col)
if(sram_col EQUAL -1)
  message(FATAL_ERROR "metrics.csv has no node0.nic.sram_free_bytes column")
endif()
# A link's utilization is a fraction of elapsed time: never above 1.
set(util_cols "")
set(col 0)
foreach(column IN LISTS csv_columns)
  if(column MATCHES "^fabric\\.link\\..*\\.util$")
    list(APPEND util_cols ${col})
  endif()
  math(EXPR col "${col} + 1")
endforeach()
list(LENGTH util_cols util_col_count)
if(util_col_count EQUAL 0)
  message(FATAL_ERROR "metrics.csv has no fabric.link.*.util column")
endif()
list(SUBLIST csv_lines 1 -1 csv_rows)
foreach(row IN LISTS csv_rows)
  string(REPLACE "," ";" fields "${row}")
  list(GET fields 0 row_time)
  list(GET fields ${sram_col} sram_free)
  if(sram_free STREQUAL "0")
    message(FATAL_ERROR "metrics.csv reads node0.nic.sram_free_bytes = 0 "
                        "at time_us ${row_time}")
  endif()
  foreach(c IN LISTS util_cols)
    list(GET fields ${c} util)
    if(util GREATER 1)
      list(GET csv_columns ${c} util_name)
      message(FATAL_ERROR "metrics.csv reads ${util_name} = ${util} "
                          "at time_us ${row_time}")
    endif()
  endforeach()
endforeach()

file(STRINGS "${OUT_DIR}/metrics.prom" prom_types REGEX "^# TYPE bcl_")
list(LENGTH prom_types prom_count)
if(prom_count EQUAL 0)
  message(FATAL_ERROR "metrics.prom has no '# TYPE bcl_...' lines")
endif()

file(READ "${OUT_DIR}/congestion.json" congestion)
if(NOT congestion MATCHES "\"util\"" OR NOT congestion MATCHES "\"queue_wait_us\"")
  message(FATAL_ERROR "congestion.json is missing link gauges")
endif()

# One node's series names, pinned: a series a refactor drops or renames
# fails here by name instead of reading 0 in whatever sums it.
file(READ "${OUT_DIR}/metrics.json" metrics)
set(actual_series "")
foreach(section counters gauges summaries histograms)
  string(JSON members GET "${metrics}" ${section})
  string(JSON count LENGTH "${members}")
  if(count EQUAL 0)
    continue()
  endif()
  math(EXPR last "${count} - 1")
  foreach(i RANGE ${last})
    string(JSON name MEMBER "${members}" ${i})
    if(name MATCHES "^node0\\.")
      list(APPEND actual_series "${section} ${name}")
    endif()
  endforeach()
endforeach()
file(STRINGS "${CMAKE_CURRENT_LIST_DIR}/metrics_node0_series.txt"
     pinned_series REGEX "^[a-z]+ node0\\.")
set(missing_series ${pinned_series})
if(actual_series)
  list(REMOVE_ITEM missing_series ${actual_series})
endif()
set(extra_series ${actual_series})
if(pinned_series)
  list(REMOVE_ITEM extra_series ${pinned_series})
endif()
if(missing_series OR extra_series)
  list(JOIN missing_series "\n  " missing_text)
  list(JOIN extra_series "\n  " extra_text)
  message(FATAL_ERROR "metrics.json node0 series differ from "
                      "metrics_node0_series.txt\nmissing:\n  ${missing_text}"
                      "\nextra:\n  ${extra_text}")
endif()
list(LENGTH actual_series series_count)

# Reading a gauge changes nothing, so the two exports agree on every link's
# utilization.
file(READ "${OUT_DIR}/metrics.prom" prom)
string(JSON gauges GET "${metrics}" gauges)
string(JSON gauge_count LENGTH "${gauges}")
math(EXPR last "${gauge_count} - 1")
set(util_count 0)
foreach(i RANGE ${last})
  string(JSON name MEMBER "${gauges}" ${i})
  if(NOT name MATCHES "^fabric\\.link\\..*\\.util$")
    continue()
  endif()
  string(JSON json_util GET "${gauges}" "${name}")
  string(REGEX REPLACE "[^A-Za-z0-9_:]" "_" prom_util "bcl_${name}")
  string(REGEX MATCH "\n${prom_util} ([^\n]*)" prom_line "${prom}")
  if(prom_line STREQUAL "" OR NOT CMAKE_MATCH_1 EQUAL json_util)
    message(FATAL_ERROR "${name} reads ${json_util} in metrics.json but "
                        "'${CMAKE_MATCH_1}' in metrics.prom")
  endif()
  math(EXPR util_count "${util_count} + 1")
endforeach()
if(util_count EQUAL 0)
  message(FATAL_ERROR "metrics.json has no fabric.link.*.util gauge")
endif()

file(READ "${OUT_DIR}/postmortem.json" postmortem)
foreach(key reason timeline top_links sessions)
  if(NOT postmortem MATCHES "\"${key}\"")
    message(FATAL_ERROR "postmortem.json is missing \"${key}\"")
  endif()
endforeach()

message(STATUS "exports validated: json ok, csv ${csv_count} lines, "
               "${prom_count} prometheus series, ${series_count} node0 "
               "series as pinned")
