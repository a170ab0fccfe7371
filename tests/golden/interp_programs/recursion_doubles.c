/* Recursion, uncoerced double params/returns, builtins, loop exits. */
double dd[4];
double half(double v) { return v / 2; }
int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }
double ret_int() { return 3; }
int main()
{
    double d; int i;
    d = half(5);
    dd[0] = half(4);
    dd[1] = ret_int();
    dd[2] = ret_int() / 2;
    print(d, dd[0], dd[1], dd[2], fact(6), half(7) * 2);
    i = 0;
    while (1) { i++; if (i > 3) { break; } }
    for (;;) { i = i + 10; if (i > 50) { break; } else { continue; } }
    print(i, 7 % 3, (0 - 7) % 3, (0 - 7) / 2, 7 / (0 - 2));
    print(min(3, 9), fmax(1.5, 2), abs(0 - 3), fabs(0.0 - 2.5), sqrt(16), sqrt(0 - 1.0), toint(2.7), tofloat(3));
    print(exp(1.0), pow(2.0, 10.0), sin(0.0), cos(0.0), rnd(5), rndf(5));
    return 0;
}
