"""The feedback protocol, one transcript at a time.

Phase 1: a periodic pilot turns the channel's own noise into a block string
known to both sides through the noiseless feedback link.  A typicality
filter discards statistically irregular strings.  Phase 2: sender and
verifier hash (message, string) into a small range M and the sender
transmits its hash value with a short peak/silence code under maximum
likelihood decoding.  A wrong message then survives only by hash collision,
at rate about 1/M, no matter how many messages exist; that is the feedback
advantage.
"""

import math

from dipc import (
    ChannelParams,
    PowerConstraints,
    build_dif_code,
    collision_bound_check,
    dif_encode,
    dif_identify,
    dif_rate,
    estimate_dif_errors,
    estimate_inner_error,
    max_messages_log_log,
    typical_log_size,
)

channel = ChannelParams(memory=2, hit_probs=[0.6, 0.3, 0.1], slot_duration=1.0,
                        dark_rate=0.1)
code = build_dif_code(n=300, params=channel, constraints=PowerConstraints(peak=5.0, average=5.0),
                      num_messages=64, hash_range=16, eps=0.2, seed=9)

print(f"phase 1: {math.ceil(code.n / (channel.memory + 1))} pilot blocks of length "
      f"{channel.memory + 1}; phase 2: {code.inner.shape[1]} slots for "
      f"{code.hashes.hash_range} hash values\n")

y, transcript = dif_encode(index=5, code=code, seed=31)
print(f"one run of message 5 (seed 31):")
print(f"  first blocks: {transcript.blocks[:3].tolist()} ...")
print(f"  typical: {transcript.typical}, hash value sent: {transcript.hash_value}")
print(f"  verify message 5: {dif_identify(5, y, code)}")
others = [i for i in range(10) if i != 5]
accepted = [i for i in others if dif_identify(i, y, code)]
print(f"  wrong messages accepted (hash collisions): {accepted}\n")

inner = estimate_inner_error(code, trials=2000, seed=40)
result = estimate_dif_errors(code, [(5, 6), (6, 5)], trials=2000, seed=41)
print(f"measured inner-code error: {inner.estimate:.4f}")
print(f"Type I for message 5: {result.type1[5].estimate:.4f} "
      f"(atypicality + decode failure)")
print(f"Type II (5 tested as 6): {result.type2[(5, 6)].estimate:.4f} "
      f"vs collision rate 1/M = {1/code.hashes.hash_range:.4f}\n")

bits = max_messages_log_log(900, channel, peak=5.0)
print(f"feasible message count at n=900: about 2^(2^{bits:.0f}), "
      "double exponential in the block length")

# The paper's bookkeeping for this code: typical set, collision bound, rate.
log_size = typical_log_size(code.n, code.typ)
num, size = code.hashes.num_messages, code.hashes.hash_range
print(f"\ntypical set of the n={code.n} pilot: about 2^{log_size:.0f} strings")
for budget in (0.5, 0.2):
    holds = collision_bound_check(num, size, budget, log_size)
    print(f"collision union bound for {num} messages at M={size}, Type II budget {budget}: "
          f"{holds} (budget * log2 M = {budget * math.log2(size):.1f}, needs > 1)")
achieved = dif_rate(math.log2(math.log2(num)), code.n)
floor = dif_rate(max_messages_log_log(code.n, channel, peak=5.0), code.n)
print(f"achieved rate log2 log2({num}) / n = {achieved:.4f} against the floor "
      f"{floor:.4f} bits per slot")
