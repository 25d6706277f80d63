"""Random model specs shared by the test modules."""

from qsurvival import hamiltonian as ham


def random_experimental_spec(rng, n=None, env=None, seed=None):
    """A random experimental-model spec with moderate disorder."""
    n = n or int(rng.integers(2, 9))
    env = env or (ham.Environment.FULL if rng.integers(2) else ham.Environment.DIAGONAL)
    return ham.HamiltonianSpec(
        ham.Experimental(
            n,
            omega=1.0,
            delta=float(rng.uniform(0.05, 0.3)),
            sigma=float(rng.uniform(0.05, 0.5)),
            env=env,
        ),
        seed=seed if seed is not None else int(rng.integers(0, 2**63)),
    )


def chain_matrix(n, omega, g):
    """The chain's matrix, as ``hamiltonian.build`` draws it."""
    return ham.build(ham.HamiltonianSpec(ham.Chain(n, omega, g)))
