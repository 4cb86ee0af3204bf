// Umbrella header + registry for the five paper model families.
#pragma once

#include <functional>
#include <vector>

#include "src/models/char_lm.h"
#include "src/models/common.h"
#include "src/models/nmt.h"
#include "src/models/resnet.h"
#include "src/models/speech.h"
#include "src/models/transformer.h"
#include "src/models/word_lm.h"

namespace gf::models {

/// Builds the default configuration of every domain's model, in the
/// paper's Table 1 order. Graph construction for the recurrent models is
/// non-trivial (tens of thousands of ops); callers typically build once
/// and re-bind symbols across sweeps.
std::vector<ModelSpec> build_all_domains();

}  // namespace gf::models
