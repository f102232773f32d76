#include "dead/orphan.hpp"

#include "live/used.hpp"

namespace rsm_fixture {
int orphan() { return used(); }
}  // namespace rsm_fixture
