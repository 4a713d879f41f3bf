/* The words the major heap has allocated directly: blocks too large for
   the minor heap (over Max_young_wosize words) and nothing that a minor
   collection promoted. The runtime adds each shared-heap allocation to
   [allocated_words] and folds that into [stat_major_words] at a major
   slice; a minor collection adds what it promoted to
   [stat_promoted_words] as well. So the difference counts direct major
   allocations only, up to date at every call.

   Native code calls it [@@noalloc] and unboxed: it reads three
   domain-state fields and returns a double. The bytecode entry boxes
   the same value. */

#define CAML_INTERNALS
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/domain_state.h>

double dagrider_prof_major_direct_words(value unit)
{
  (void)unit;
  return (double)Caml_state->stat_major_words
         + (double)Caml_state->allocated_words
         - (double)Caml_state->stat_promoted_words;
}

value dagrider_prof_major_direct_words_byte(value unit)
{
  return caml_copy_double(dagrider_prof_major_direct_words(unit));
}
