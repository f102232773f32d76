#pragma once

namespace rsm_fixture {
int used();
}  // namespace rsm_fixture
