// Seeded mutant for lint gate 7 (scripts/lint.sh): a config struct with
// a field that nothing in the tree assigns — a knob with one value in
// use, which the gate must report as a constant in disguise. The file is
// NOT part of any build target and is only scanned when
// HA_LINT_GATE7_MUTANT=1; CI runs the gate once in that configuration
// and requires it to fail, proving the check is live.
#pragma once

#include <cstdint>

namespace hyperalloc::lint_mutant {

struct Gate7MutantConfig {
  // Assigned by no source file: gate 7 must report it.
  uint64_t gate7_mutant_never_assigned = 64;
};

}  // namespace hyperalloc::lint_mutant
