"""The standard normal quantile function in the standard library.

A port of Cephes ``ndtri`` (S. L. Moshier, *Methods and Programs for
Mathematical Functions*, 1989), the algorithm behind
``scipy.special.ndtri``.  It uses only ``math.log`` and ``math.sqrt`` and
keeps Cephes' evaluation order, so it returns the same doubles as
``ndtri``.  ``statistics.NormalDist.inv_cdf`` (Wichura's AS241) differs
from it in the last few bits, which would change simulated data.
"""

import math

# rational approximation for 0 <= |y - 0.5| <= 3/8
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
       -5.66762857469070293439E1, 1.39312609387279679503E1,
       -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0,
       8.63602421390890590575E1, -2.25462687854119370527E2,
       2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
# approximation for interval z = sqrt(-2 log y) between 2 and 8
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
       5.71628192246421288162E1, 4.40805073893200834700E1,
       1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2,
       -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1,
       4.13172038254672030440E1, 1.50425385692907503408E1,
       2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
# approximation for interval z = sqrt(-2 log y) between 8 and 64
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
       3.93881025292474443415E0, 1.33303460815807542389E0,
       2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6,
       6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0,
       1.37702099489081330271E0, 2.16236993594496635890E-1,
       1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)
_S2PI = 2.50662827463100050242E0  # sqrt(2 pi)
_EXPM2 = 0.13533528323661269189  # exp(-2)


def _polevl(x, c):
    """``c[0] x^N + ... + c[N]`` by Horner's rule, left to right."""
    a = c[0]
    for k in c[1:]:
        a = a * x + k
    return a


def _p1evl(x, c):
    """``_polevl`` with an implicit leading coefficient 1."""
    a = x + c[0]
    for k in c[1:]:
        a = a * x + k
    return a


def ndtri(y0: float) -> float:
    """x with Phi(x) = y0; -inf at 0, inf at 1, NaN outside [0, 1]."""
    if not 0.0 <= y0 <= 1.0:
        return math.nan
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    code, y = True, y0
    if y > 1.0 - _EXPM2:
        y, code = 1.0 - y, False
    if y > _EXPM2:
        y = y - 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    x = x0 - x1
    return -x if code else x
