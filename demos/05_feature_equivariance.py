"""Feature maps, the group action on them, and end-to-end equivariance.

A feature map's channels carry a representation: RGB-like channels are
trivial (rotating the image leaves them alone), gradient-like 2-vectors
follow the frequency-1 irrep (they spin with the image), and regular
channels permute.  Convolving with a steerable kernel commutes with the
action, up to the zero-padded border.
"""

import numpy as np

from filtra import (
    act_on_feature,
    check_feature_equivariance,
    conv2d,
    cyclic_group,
    feature_map,
    group_pool,
    irrep,
    pool_spatial,
    regular_rep,
    relu_channelwise,
    steerable_kernel,
    trivial_rep,
)

np.set_printoptions(precision=3, suppress=True)
rng = np.random.default_rng(1)

c4 = cyclic_group(4)
quarter = c4.element(0, 1)

# Trivial channels: the action only moves pixels.
image = feature_map(c4, trivial_rep(c4), rng.uniform(-1.0, 1.0, (3, 5, 5)))
rotated = act_on_feature(quarter, image)
print("trivial channels, 90 degrees: channel 0 rotates as an image:",
      np.array_equal(rotated.data[0], np.rot90(image.data[0])))

# Irrep channels: pixels move and each 2-vector spins along.
field = feature_map(c4, irrep(c4, 0, 1), rng.uniform(-1.0, 1.0, (2, 5, 5)))
spun = act_on_feature(quarter, field)
v_in = field.data[:, 2, 3]
v_out = spun.data[:, 1, 2]  # the pixel right of center lands above center
print("irrep channels: vector rotated by 90 degrees:",
      np.allclose(v_out, np.array([[0, -1], [1, 0]]) @ v_in))

# Convolution with a steerable kernel commutes with the action.
kernel = steerable_kernel(trivial_rep(c4), [rng.uniform(-1.0, 1.0, (3, 3))])
f = feature_map(c4, trivial_rep(c4), rng.uniform(-1.0, 1.0, (1, 15, 15)))
for g, (abs_res, _) in zip(c4.elements(), check_feature_equivariance(kernel, f, c4.elements())):
    print(f"conv/act commutation at rotation index {g.i1}: {abs_res:.2e}")

# A small steerable pipeline stays equivariant end to end, and group pooling
# at the top produces a rotation-invariant map.
reg_kernel = steerable_kernel(regular_rep(c4), [rng.uniform(-1.0, 1.0, (3, 3)) for _ in range(3)])


def network(x):
    y = conv2d(kernel, x)
    y = relu_channelwise(y)
    y = conv2d(reg_kernel, y)
    y = pool_spatial(y, 3, 1)
    return group_pool(y)


out = network(f)
out_rot = network(act_on_feature(quarter, f))
back = act_on_feature(quarter, out)
inner = (slice(None), slice(3, 12), slice(3, 12))
print("\n3-layer chain: output of the rotated input equals the rotated output:",
      f"{np.abs(out_rot.data[inner] - back.data[inner]).max():.2e}")
print("group-pooled output representation:", out.rep.label())
