#pragma once

// orphan-module fixture: a header-only module nothing but the umbrella
// includes.
namespace rsm_fixture {
inline int header_only() { return 1; }
}  // namespace rsm_fixture
