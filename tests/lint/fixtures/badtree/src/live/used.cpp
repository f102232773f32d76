#include "live/used.hpp"

#include "live/helper.hpp"

namespace rsm_fixture {
int used() { return helper(); }
}  // namespace rsm_fixture
