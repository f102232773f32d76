#pragma once

// orphan-module fixture: reached only from the umbrella and its own .cpp.
namespace rsm_fixture {
int orphan();
}  // namespace rsm_fixture
