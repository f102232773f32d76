#pragma once

// orphan-module fixture umbrella: including it reaches nothing.
#include "dead/header_only.hpp"
#include "dead/orphan.hpp"
#include "live/used.hpp"
