"""Seeded random generators for forms, pairings and functions.

Used by the property checks and the CLI suites; everything draws from a
caller-supplied random.Random so runs are reproducible byte for byte.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .blades import masks_of_degree
from .exterior import Bivector, PairTensor, QForm
from .fields import FieldForm
from .functions import FourierFn, PolyFn
from .scalars import GaussRat, HPoly, TauNumber, add_term


def random_fraction(rng: Random, span: int = 4) -> Fraction:
    num = rng.randint(-span, span)
    den = rng.choice([1, 1, 2, 3])
    return Fraction(num, den)


def random_hpoly(rng: Random, max_h: int = 2, span: int = 4) -> HPoly:
    terms = {}
    for e in range(max_h + 1):
        if rng.random() < 0.5:
            terms[e] = random_fraction(rng, span)
    if not terms:
        terms[0] = Fraction(rng.randint(1, span))
    return HPoly(terms)


def random_qform(rng: Random, dim: int, nterms: int = 3, max_h: int = 1,
                 span: int = 3, degree=None) -> QForm:
    terms = {}
    if degree is None:
        pool = list(range(1 << dim))
    else:
        pool = masks_of_degree(dim, degree)
    for _ in range(nterms):
        m = rng.choice(pool)
        c = random_hpoly(rng, max_h, span)
        add_term(terms, m, c)
    return QForm(dim, terms)


def random_blade_form(rng: Random, dim: int, degree: int) -> QForm:
    """A single random blade of the given degree with coefficient 1."""
    return QForm(dim, {rng.choice(masks_of_degree(dim, degree)): 1})


def random_bivector(rng: Random, dim: int, span: int = 3,
                    density: float = 0.7) -> Bivector:
    entries = {}
    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            if rng.random() < density:
                entries[(i, j)] = random_fraction(rng, span)
    return Bivector(dim, entries)


def random_pairing(rng: Random, dim: int, span: int = 3,
                   density: float = 0.5) -> PairTensor:
    """A general (not antisymmetric) deformation pairing."""
    entries = {}
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            if rng.random() < density:
                entries[(i, j)] = random_fraction(rng, span)
    return PairTensor(dim, entries)

def random_gauss(rng: Random, span: int = 3) -> GaussRat:
    return GaussRat(random_fraction(rng, span), random_fraction(rng, span))


def random_polyfn(rng: Random, dim: int, max_deg: int = 2, span: int = 3,
                  nterms: int = 3, complex_ok: bool = False) -> PolyFn:
    terms = {}
    for _ in range(nterms):
        expo = [0] * dim
        for _ in range(rng.randint(0, max_deg)):
            expo[rng.randrange(dim)] += 1
        c = (random_gauss(rng, span) if complex_ok
             else random_fraction(rng, span))
        add_term(terms, tuple(expo), c)
    return PolyFn(dim, terms)


def random_fourierfn(rng: Random, dim: int, N: int = 1, span: int = 3,
                     nterms: int = 2) -> FourierFn:
    terms = {}
    for _ in range(nterms):
        mode = tuple(rng.randint(-N, N) for _ in range(dim))
        add_term(terms, mode, TauNumber(random_gauss(rng, span)))
    return FourierFn(dim, terms)


def random_fn(rng: Random, model, span: int = 3, **kw):
    if model.fnring is FourierFn:
        return random_fourierfn(rng, model.dim, N=model.torus_N or 1,
                                span=span, nterms=kw.get("nterms", 2))
    return random_polyfn(rng, model.dim, max_deg=kw.get("max_deg", 2),
                         span=span, nterms=kw.get("nterms", 2),
                         complex_ok=kw.get("complex_ok", False))


def random_fieldform(rng: Random, model, nterms: int = 3, max_h: int = 1,
                     span: int = 3, degree=None, **kw) -> FieldForm:
    if degree is None:
        pool = list(range(1 << model.dim))
    else:
        pool = masks_of_degree(model.dim, degree)
    terms = {}
    for _ in range(nterms):
        key = (rng.randint(0, max_h), rng.choice(pool))
        add_term(terms, key, random_fn(rng, model, span=span, **kw))
    return FieldForm(model.dim, model.fnring, terms)
