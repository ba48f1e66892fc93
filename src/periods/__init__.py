"""Exact p-adic periods.

Submodules:

    padic       tracked-precision p-adic arithmetic
    arith       primality, Kronecker symbols, rational reconstruction
    gamma       the Morita gamma function and its functional equations
    cyclotomic  Gross-Koblitz: Gauss sums from Dwork's coefficients against gamma_p
    cm          gamma-product periods of imaginary quadratic fields
    kummer      rank-2 Kummer periods and weight-triangular solves
    hypergeom   local solutions of the hypergeometric equation
    frobenius   crystalline Frobenius matrices of elliptic curves
    tannaka     group dimensions, matrix coefficients, closure reports
    cli         the `periods` command line front end
"""

__version__ = "0.1.0"
