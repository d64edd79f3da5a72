#!/usr/bin/env bash
# Prints the CPU model and whether the CPU reports each feature the
# Montgomery kernels dispatch on (DESIGN.md §5d): bmi2+adx select the
# mulx/adcx/adox table, avx512f+avx512ifma add the 8-lane table that
# same-exponent Paillier batches run on. On a CPU without the last two
# the lane tests skip and those batches run per row, so a test or
# sanitizer log that reads "no" for them did not exercise the lane kernels.
#
# Usage: scripts/log_cpu_features.sh
set -euo pipefail

grep -m1 'model name' /proc/cpuinfo || true
for f in bmi2 adx avx512f avx512ifma; do
  if grep -qw "$f" /proc/cpuinfo; then
    echo "cpu feature $f: yes"
  else
    echo "cpu feature $f: no"
  fi
done
