/* Locals whose address is taken live in private memory. */
int g; int *gp;
int f(int *p) { *p = *p + 5; return *p; }
int main()
{
    int x; int y; int *q;
    x = 3; y = 0;
    q = &x;
    *q = 7;
    y = f(&x);
    gp = &x;
    print(x, y, *gp);
    print(q == gp);
    return x;
}
