#include "src/models/models.h"

namespace gf::models {

std::vector<ModelSpec> build_all_domains() {
  std::vector<ModelSpec> specs;
  specs.reserve(5);
  specs.push_back(build_word_lm());
  specs.push_back(build_char_lm());
  specs.push_back(build_nmt());
  specs.push_back(build_speech());
  specs.push_back(build_resnet());
  return specs;
}

}  // namespace gf::models
