#include "cookies/generator.h"

namespace nnn::cookies {

CookieGenerator::CookieGenerator(CookieDescriptor descriptor,
                                 const util::Clock& clock, uint64_t rng_seed)
    : descriptor_(std::move(descriptor)), clock_(clock), rng_(rng_seed) {}

Cookie CookieGenerator::generate() {
  Cookie c;
  c.cookie_id = descriptor_.cookie_id;
  c.uuid = crypto::Uuid::generate(rng_);
  c.timestamp = to_cookie_time(clock_.now());
  c.signature = c.compute_tag(util::BytesView(descriptor_.key));
  return c;
}

}  // namespace nnn::cookies
