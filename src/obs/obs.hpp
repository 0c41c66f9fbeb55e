#pragma once
// Umbrella header for the observability subsystem: structured leveled
// logging (log.hpp), RAII span timing (span.hpp), the causal span tracer +
// flight recorder (trace.hpp) and the shared JSON writer (json.hpp). Run
// counts are not kept here: they live in core::RunTrace. See DESIGN.md §9
// for the event schema, span-tree model, and the read-side determinism
// invariant every instrumented layer must respect.

#include "obs/json.hpp"   // IWYU pragma: export
#include "obs/log.hpp"    // IWYU pragma: export
#include "obs/span.hpp"   // IWYU pragma: export
#include "obs/trace.hpp"  // IWYU pragma: export
