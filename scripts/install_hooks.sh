#!/usr/bin/env bash
# Opt-in developer hook installer. Writes a pre-commit hook that runs
# flb_analyze over the STAGED src/ tree — the same command, exceptions and
# baseline the CI lint job runs, so a clean hook means a green lint job —
# plus clang-format over the staged C++ files. Nothing in the build or CI
# depends on this; it is purely a local early-warning net.
#
# Usage:
#   ./scripts/install_hooks.sh              # install / refresh
#   ./scripts/install_hooks.sh --uninstall  # remove (only our hook)
#
# The hook respects FLB_HOOK_BUILD_DIR (default: build) for a prebuilt
# flb_analyze and builds it on first use if missing. Bypass a single commit
# with `git commit --no-verify`.
set -euo pipefail
cd "$(dirname "$0")/.."

MARKER="# flb-pre-commit-hook v1"
HOOK="$(git rev-parse --git-path hooks)/pre-commit"

if [ "${1:-}" = "--uninstall" ]; then
  if [ -f "$HOOK" ] && grep -qF "$MARKER" "$HOOK"; then
    rm "$HOOK"
    echo "install_hooks: removed $HOOK"
  else
    echo "install_hooks: no flb hook installed at $HOOK, nothing to do"
  fi
  exit 0
fi

if [ -f "$HOOK" ] && ! grep -qF "$MARKER" "$HOOK"; then
  echo "install_hooks: $HOOK exists and is not ours; refusing to overwrite" >&2
  exit 1
fi

mkdir -p "$(dirname "$HOOK")"
cat > "$HOOK" <<EOF
#!/usr/bin/env bash
$MARKER  (installed by scripts/install_hooks.sh; edit there, not here)
# Checks the staged tree as it will be committed: flb_analyze
# (FLB001-FLB009) over all of src/ with the staged layering exceptions and
# baseline — the command scripts/run_lint.sh runs, so cross-file checks
# (FLB005's Status names, call resolution, layering) see the whole tree —
# and clang-format over the staged C++ files when available. Skip once:
# --no-verify.
set -euo pipefail
repo="\$(git rev-parse --show-toplevel)"
build="\${FLB_HOOK_BUILD_DIR:-\$repo/build}"
exceptions=tools/flb_analyze/layering_exceptions.txt
baseline=tools/flb_analyze/analyze_baseline.txt

mapfile -t staged < <(git diff --cached --name-only --diff-filter=ACMR -- \\
  '*.h' '*.cc' '*.cpp' | grep -E '^(src|tools|bench)/' || true)
if [ "\${#staged[@]}" -eq 0 ] && git diff --cached --quiet -- src \\
    "\$exceptions" "\$baseline"; then
  exit 0
fi

analyze="\$build/tools/flb_analyze/flb_analyze"
if [ ! -x "\$analyze" ]; then
  echo "pre-commit: building flb_analyze (first run)..."
  cmake -S "\$repo" -B "\$build" >/dev/null
  cmake --build "\$build" -j --target flb_analyze >/dev/null
fi

# Check the staged blobs, not the working tree: a partially staged file is
# checked as it will be committed, and an unstaged file is not seen at all.
tmp="\$(mktemp -d)"
trap 'rm -rf "\$tmp"' EXIT
git ls-files -z -- src "\$exceptions" "\$baseline" "\${staged[@]}" |
  git checkout-index --prefix="\$tmp/" -z --stdin
cd "\$tmp"

"\$analyze" --root src --exceptions "\$exceptions" --baseline "\$baseline"

if [ "\${#staged[@]}" -gt 0 ] && command -v clang-format >/dev/null 2>&1; then
  clang-format --dry-run -Werror "\${staged[@]}"
fi
EOF
chmod +x "$HOOK"
echo "install_hooks: installed $HOOK"
echo "install_hooks: bypass once with 'git commit --no-verify';" \
     "remove with './scripts/install_hooks.sh --uninstall'"
