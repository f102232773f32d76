// orphan-module fixture root: reaches live/used (and, through used.cpp,
// live/helper). The umbrella include does not count, so dead/orphan and
// dead/header_only stay unreached. The other fixture headers are included
// only so that they do not count as orphans too.
#include "bad_header.hpp"
#include "live/used.hpp"
#include "rsm.hpp"
#include "util/errors.hpp"

int main() { return rsm_fixture::used(); }
