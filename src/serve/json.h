// The serve protocol's JSON type is util::Json (src/util/json.h). This
// alias remains for perfbench/, whose sources include it by this path.
#pragma once

#include "src/util/json.h"

namespace gf::serve {

using Json = util::Json;

}  // namespace gf::serve
