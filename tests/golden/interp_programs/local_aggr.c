/* Local arrays and structs (private aggregates). */
struct pt { int a; double b; int c[3]; };
struct pt gs[4];
int main()
{
    int buf[5]; struct pt s; int i; double acc;
    for (i = 0; i < 5; i++) { buf[i] = i * i; }
    s.a = buf[2]; s.b = 1; s.c[1] = buf[4];
    acc = s.b + s.a + s.c[1];
    gs[1].c[2] = s.c[1];
    print(acc, gs[1].c[2], buf[3]);
    return 0;
}
