#pragma once

namespace rsm_fixture {
inline int helper() { return 0; }
}  // namespace rsm_fixture
